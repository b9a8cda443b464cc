package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust"
)

// TestStreamCSVFinalLineNoNewline is the tail-follow regression: a
// complete final record without a trailing newline must parse under a
// strict budget and under a non-strict one.
func TestStreamCSVFinalLineNoNewline(t *testing.T) {
	in := csvHdrLine + "\n" +
		"100,1.1.1.1,198.18.0.1,23,tcp,0\n" +
		"200,2.2.2.2,198.18.0.2,445,tcp,1" // no \n
	events, _, err := readAll(in, robust.Budget{})
	if err != nil {
		t.Fatalf("strict scan: %v", err)
	}
	if len(events) != 2 || events[1].Ts != 200 || !events[1].Mirai {
		t.Fatalf("events = %+v", events)
	}
	_, rep, err := readAll(in, robust.Budget{MaxErrors: 1})
	if err != nil || rep.Read() != 2 || rep.Skipped() != 0 || rep.Truncated() {
		t.Fatalf("tolerant scan: rep=%s err=%v", rep, err)
	}
}

// TestStreamCSVPartialFinalLine: a final line cut off mid-record (what a
// tail-follow source or an interrupted copy delivers) is a truncation under
// a non-strict budget — the intact prefix is kept, nothing is charged
// against the budget — while a strict budget still rejects it.
func TestStreamCSVPartialFinalLine(t *testing.T) {
	in := csvHdrLine + "\n" +
		"100,1.1.1.1,198.18.0.1,23,tcp,0\n" +
		"200,2.2.2.2,198.18" // cut mid-record
	if _, _, err := readAll(in, robust.Budget{}); err == nil {
		t.Fatal("strict scan must reject a partial final line")
	}
	events, rep, err := readAll(in, robust.Budget{MaxErrors: 1})
	if err != nil {
		t.Fatalf("tolerant scan: %v", err)
	}
	if len(events) != 1 || events[0].Ts != 100 {
		t.Fatalf("intact prefix = %+v", events)
	}
	if !rep.Truncated() || rep.Skipped() != 0 || rep.Read() != 1 {
		t.Fatalf("rep = %s, want truncated with 1 read / 0 skipped", rep)
	}
}

// TestStreamCSVGarbageThenPartialTail: mid-stream garbage still counts
// against the budget even when the input also ends with a partial line.
func TestStreamCSVGarbageThenPartialTail(t *testing.T) {
	in := csvHdrLine + "\n" +
		"100,1.1.1.1,198.18.0.1,23,tcp,0\n" +
		"complete garbage\n" +
		"300,3.3.3.3,198.18.0.3,80,tcp,0\n" +
		"400,4.4.4.4,198" // cut
	events, rep, err := readAll(in, robust.Budget{MaxErrors: 5})
	if err != nil {
		t.Fatalf("tolerant scan: %v", err)
	}
	if len(events) != 2 || rep.Read() != 2 || rep.Skipped() != 1 || !rep.Truncated() {
		t.Fatalf("rep = %s, events = %+v", rep, events)
	}
}

func TestParseCSVLine(t *testing.T) {
	e, err := ParseCSVLine("100,1.1.1.1,198.18.0.1,23,tcp,1")
	if err != nil {
		t.Fatal(err)
	}
	if e.Ts != 100 || e.Port != 23 || !e.Mirai {
		t.Fatalf("event = %+v", e)
	}
	// CRLF framing.
	if _, err := ParseCSVLine("100,1.1.1.1,198.18.0.1,23,tcp,1\r"); err != nil {
		t.Fatalf("CRLF line rejected: %v", err)
	}
	// A seventh field is the vantage tag.
	e, err = ParseCSVLine("100,1.1.1.1,198.18.0.1,23,tcp,1,north")
	if err != nil {
		t.Fatalf("tagged line rejected: %v", err)
	}
	if e.Vantage.String() != "north" {
		t.Fatalf("vantage = %q, want north", e.Vantage)
	}
	for _, bad := range []string{
		"", "100", "100,1.1.1.1,198.18.0.1,23,tcp", // short
		"100,1.1.1.1,198.18.0.1,23,tcp,1,v,extra", // long
		"x,1.1.1.1,198.18.0.1,23,tcp,1",           // bad ts
		"100,1.1.1,198.18.0.1,23,tcp,1",           // bad src
		"100,1.1.1.1,198.18.0.1,70000,tcp,1",      // bad port
		"100,1.1.1.1,198.18.0.1,23,gre,1",         // bad proto
	} {
		if _, err := ParseCSVLine(bad); err == nil {
			t.Errorf("ParseCSVLine(%q) accepted", bad)
		}
	}
}

func TestEventAppendCSVMatchesWriteCSV(t *testing.T) {
	tr := sampleTrace()
	var lines []string
	for _, e := range tr.Events {
		lines = append(lines, string(e.AppendCSV(nil)))
	}
	got, _, err := ReadCSV(strings.NewReader(CSVHeaderLine+"\n"+strings.Join(lines, "\n")+"\n"), robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip %d events, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

// referenceCSV is the event's CSV line through fmt and strconv, the
// reference AppendCSV is held to.
func referenceCSV(e Event) string {
	dotted := func(ip netutil.IPv4) string {
		return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
	}
	mirai := 0
	if e.Mirai {
		mirai = 1
	}
	line := fmt.Sprintf("%d,%s,%s,%d,%s,%d", e.Ts, dotted(e.Src), dotted(e.Dst), e.Port, e.Proto, mirai)
	if e.Vantage != 0 {
		line += "," + e.Vantage.String()
	}
	return line
}

// TestAppendCSVMatchesReference: the in-place formatter writes what the
// strconv reference does, byte for byte, at every digit-count boundary of
// the timestamp, the port and each address octet, on both sides of the
// in-place timestamp range, for the three known protocols and an unknown
// one, with and without the Mirai bit and a vantage tag, and after bytes
// already in dst.
func TestAppendCSVMatchesReference(t *testing.T) {
	north := MustVantage("north")
	stamps := []int64{0, -1, 9, 10, 99_999_999, 1e8, 999_999_999, 1e9, 1614556800, 9_999_999_999, 1e10, math.MaxInt64, math.MinInt64}
	ports := []uint16{0, 9, 10, 99, 100, 65535}
	octets := []uint32{0, 9, 10, 99, 100, 255}
	protos := []packet.IPProtocol{packet.IPProtocolTCP, packet.IPProtocolUDP, packet.IPProtocolICMPv4, 47}
	var addrs []netutil.IPv4
	for pos := 0; pos < 4; pos++ {
		for _, o := range octets {
			addrs = append(addrs, netutil.IPv4(o<<(8*pos)|0x01010101&^(0xff<<(8*pos))))
		}
	}
	lines := 0
	for _, ts := range stamps {
		for i, port := range ports {
			for _, proto := range protos {
				for _, mirai := range []bool{false, true} {
					for _, vantage := range []VantageID{0, north} {
						for j, src := range addrs {
							e := Event{Ts: ts, Src: src, Dst: addrs[(j*7+i)%len(addrs)] ^ 0xff, Port: port, Proto: proto, Mirai: mirai, Vantage: vantage}
							want := "x," + referenceCSV(e)
							if got := string(e.AppendCSV([]byte("x,"))); got != want {
								t.Fatalf("AppendCSV(%+v) = %q, want %q", e, got, want)
							}
							lines++
						}
					}
				}
			}
		}
	}
	if lines != len(stamps)*len(ports)*len(protos)*2*2*len(addrs) {
		t.Fatalf("checked %d lines", lines)
	}
}

func TestIsCSVHeader(t *testing.T) {
	if !IsCSVHeader(CSVHeaderLine) || !IsCSVHeader(CSVHeaderLine+"\r") {
		t.Fatal("header line not recognised")
	}
	if IsCSVHeader("100,1.1.1.1,198.18.0.1,23,tcp,0") || IsCSVHeader("") {
		t.Fatal("non-header recognised as header")
	}
}
