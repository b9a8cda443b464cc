package trace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust"
)

// FuzzParseCSVRecord fuzzes the per-line record parser the live stream
// sources run on every byte a remote sender delivers. Whatever arrives on
// the wire, the parser must fail cleanly, never panic, and a line that
// parses must round-trip through AppendCSV back to an identical event.
func FuzzParseCSVRecord(f *testing.F) {
	f.Add("100,1.1.1.1,198.18.0.1,23,tcp,0")
	f.Add("200,2.2.2.2,198.18.0.2,445,tcp,1")
	f.Add("300,3.3.3.3,198.18.0.3,53,udp,0")
	f.Add("400,4.4.4.4,198.18.0.4,0,icmp,0")
	f.Add("100,1.1.1.1,198.18.0.1,23,tcp,0\r")
	f.Add("")
	f.Add(",,,,,")
	f.Add("-9223372036854775808,0.0.0.0,255.255.255.255,65535,tcp,1")
	f.Add("1,1.2.3.4,5.6.7.8,99999,tcp,0")
	f.Add("1,999.2.3.4,5.6.7.8,23,tcp,0")
	f.Add("1,1.2.3.4,5.6.7.8,23,sctp,0")
	f.Add("100,1.1.1.1,198.18.0.1,23,tcp,0,north")
	f.Add("100,1.1.1.1,198.18.0.1,23,tcp,0,")
	f.Add("100,1.1.1.1,198.18.0.1,23,tcp,0," + strings.Repeat("v", MaxVantageLen))
	f.Add("100,1.1.1.1,198.18.0.1,23,tcp,0," + strings.Repeat("v", MaxVantageLen+1))
	f.Add(strings.Repeat(",", 1000))
	f.Fuzz(func(t *testing.T, line string) {
		emptyFullVantageTable()
		e, err := ParseCSVLine(line)
		if err != nil {
			return
		}
		// A parsed event must survive the wire format round trip.
		back, err := ParseCSVLine(string(e.AppendCSV(nil)))
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", line, err)
		}
		if back != e {
			t.Fatalf("round trip of %q: %+v != %+v", line, back, e)
		}
		if len(e.Vantage.String()) > MaxVantageLen {
			t.Fatalf("%q admitted a %d-byte vantage tag", line, len(e.Vantage.String()))
		}
	})
}

// FuzzAppendCSVRoundTrip fuzzes the formatter from the event side: every
// event's line is the strconv reference's, and one with a protocol the
// format names parses back to the same event; any other protocol's line is
// refused by the parser.
func FuzzAppendCSVRoundTrip(f *testing.F) {
	f.Add(int64(1614556800), uint32(0xcb0071ff), uint32(0xc612000a), uint16(23), uint8(6), true, false)
	f.Add(int64(0), uint32(0), uint32(0xffffffff), uint16(0), uint8(17), false, true)
	f.Add(int64(9_999_999_999), uint32(0x0a090063), uint32(0x640a0901), uint16(65535), uint8(1), false, false)
	f.Add(int64(-1), uint32(1), uint32(2), uint16(99), uint8(47), true, true)
	f.Add(int64(math.MaxInt64), uint32(0x64646464), uint32(0x09090909), uint16(100), uint8(6), false, false)
	north := MustVantage("north")
	f.Fuzz(func(t *testing.T, ts int64, src, dst uint32, port uint16, proto uint8, mirai, tagged bool) {
		e := Event{Ts: ts, Src: netutil.IPv4(src), Dst: netutil.IPv4(dst), Port: port, Proto: packet.IPProtocol(proto), Mirai: mirai}
		if tagged {
			e.Vantage = north
		}
		line := string(e.AppendCSV(nil))
		if want := referenceCSV(e); line != want {
			t.Fatalf("AppendCSV(%+v) = %q, want %q", e, line, want)
		}
		back, err := ParseCSVLine(line)
		if protoText(e.Proto) == "" {
			if err == nil {
				t.Fatalf("%q parsed with an unknown protocol", line)
			}
			return
		}
		if err != nil || back != e {
			t.Fatalf("%q parses back as %+v (%v), want %+v", line, back, err, e)
		}
	})
}

// emptyFullVantageTable keeps a long fuzz run exploring tags: every distinct
// tag the fuzzer invents is interned for the life of the worker process,
// and once the table is full every new one is (correctly) refused. Ids do
// not outlive one fuzz iteration, so the table can be emptied between them.
func emptyFullVantageTable() {
	vantages.RLock()
	full := len(vantages.names) == maxVantages
	vantages.RUnlock()
	if full {
		emptyVantageTable()
	}
}

// FuzzStreamCSVTolerant fuzzes ReadCSV's line framing: arbitrary byte
// soup after a valid header must never panic the budgeted reader, every
// event it returns is counted as read, and writing the result back with
// WriteCSV and re-reading it strictly gives the same events.
func FuzzStreamCSVTolerant(f *testing.F) {
	f.Add([]byte("100,1.1.1.1,198.18.0.1,23,tcp,0\n"))
	f.Add([]byte("100,1.1.1.1,198.18.0.1,23,tcp,0"))
	f.Add([]byte("garbage\n100,1.1.1.1,198.18.0.1,23,tcp,0\n"))
	f.Add([]byte("100,1.1.1.1,198.18.0.1,23,tcp,0\n200,2.2.2.2,198.18."))
	f.Add([]byte("\"unclosed quote\n"))
	f.Add([]byte{0x00, 0xff, 0x0a, 0x2c, 0x2c})
	f.Add([]byte("\n\n\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		emptyFullVantageTable()
		in := CSVHeaderLine + "\n" + string(body)
		tr, rep, err := ReadCSV(strings.NewReader(in), robust.Budget{MaxErrors: 1 << 40})
		if err != nil {
			return
		}
		if rep.Read() != int64(tr.Len()) {
			t.Fatalf("report read %d != returned %d", rep.Read(), tr.Len())
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, _, err := ReadCSV(&buf, robust.Budget{})
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v", err)
		}
		if !slices.Equal(back.Events, tr.Events) {
			t.Fatalf("WriteCSV round trip: %+v != %+v", back.Events, tr.Events)
		}
	})
}
