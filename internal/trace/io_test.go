package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust"
)

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	tr.Events[0].Mirai = true
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadCSV(&buf, robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), tr.Len())
	}
	for i := range tr.Events {
		if tr.Events[i] != back.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, tr.Events[i], back.Events[i])
		}
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(tss []uint32, srcs []uint32, ports []uint16, protoSel []uint8) bool {
		n := min(len(tss), len(srcs), len(ports), len(protoSel))
		if n > 50 {
			n = 50
		}
		events := make([]Event, n)
		protos := []packet.IPProtocol{packet.IPProtocolTCP, packet.IPProtocolUDP, packet.IPProtocolICMPv4}
		for i := 0; i < n; i++ {
			events[i] = Event{
				Ts:    int64(tss[i]),
				Src:   netutil.IPv4(srcs[i]),
				Dst:   netutil.MustParseIPv4("198.18.0.7"),
				Port:  ports[i],
				Proto: protos[protoSel[i]%3],
				Mirai: protoSel[i]%2 == 0,
			}
			if events[i].Proto == packet.IPProtocolICMPv4 {
				events[i].Port = 0
				events[i].Mirai = false
			}
			if events[i].Proto != packet.IPProtocolTCP {
				events[i].Mirai = false
			}
		}
		tr := New(events)
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		back, _, err := ReadCSV(&buf, robust.Budget{})
		if err != nil {
			return false
		}
		if back.Len() != tr.Len() {
			return false
		}
		for i := range tr.Events {
			if tr.Events[i] != back.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",        // no header
		"a,b,c\n", // wrong header
		"ts,src_ip,dst_ip,dst_port,proto,mirai\nx,1.1.1.1,2.2.2.2,80,tcp,0\n",     // bad ts
		"ts,src_ip,dst_ip,dst_port,proto,mirai\n1,bogus,2.2.2.2,80,tcp,0\n",       // bad ip
		"ts,src_ip,dst_ip,dst_port,proto,mirai\n1,1.1.1.1,2.2.2.2,99999,tcp,0\n",  // bad port
		"ts,src_ip,dst_ip,dst_port,proto,mirai\n1,1.1.1.1,2.2.2.2,80,gre,0\n",     // bad proto
		"ts,src_ip,dst_ip,dst_port,proto,mirai\n\"1\",1.1.1.1,2.2.2.2,80,tcp,0\n", // quoted ts: the format has no quoting
	}
	for i, in := range cases {
		if _, _, err := ReadCSV(strings.NewReader(in), robust.Budget{}); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestPCAPRoundTrip(t *testing.T) {
	tr := sampleTrace()
	tr.Events[1].Mirai = true // a TCP event gets the fingerprint
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	back, rep, err := ReadPCAP(&buf, robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped() != 0 || rep.Truncated() {
		t.Fatalf("report = %s", rep)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), tr.Len())
	}
	for i := range tr.Events {
		a, b := tr.Events[i], back.Events[i]
		if a.Ts != b.Ts || a.Src != b.Src || a.Dst != b.Dst || a.Port != b.Port || a.Proto != b.Proto {
			t.Fatalf("event %d: %+v != %+v", i, a, b)
		}
		if a.Proto == packet.IPProtocolTCP && a.Mirai != b.Mirai {
			t.Fatalf("event %d: mirai fingerprint lost (%v != %v)", i, a.Mirai, b.Mirai)
		}
	}
}

func TestPCAPMiraiFingerprintDerivation(t *testing.T) {
	// The fingerprint must be re-derived from TCP seq == dst IP on read,
	// not carried out-of-band.
	events := []Event{
		{Ts: day0, Src: ip("1.2.3.4"), Dst: ip("198.18.0.50"), Port: 23, Proto: packet.IPProtocolTCP, Mirai: true},
		{Ts: day0 + 1, Src: ip("1.2.3.5"), Dst: ip("198.18.0.51"), Port: 23, Proto: packet.IPProtocolTCP, Mirai: false},
	}
	var buf bytes.Buffer
	if err := New(events).WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadPCAP(&buf, robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !back.Events[0].Mirai || back.Events[1].Mirai {
		t.Fatalf("fingerprints = %v,%v", back.Events[0].Mirai, back.Events[1].Mirai)
	}
}

func TestReadPCAPGarbage(t *testing.T) {
	if _, _, err := ReadPCAP(bytes.NewReader(make([]byte, 40)), robust.DefaultBudget()); err == nil {
		t.Fatal("garbage capture must fail")
	}
}

func TestStreamCSV(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, rep, err := ReadCSV(bytes.NewReader(buf.Bytes()), robust.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || rep.Read() != int64(tr.Len()) {
		t.Fatalf("read %d events (report %s), want %d", got.Len(), rep, tr.Len())
	}
}

// TestWriteCSVBytesPinned pins WriteCSV's bytes, an untagged trace and a
// tagged one whose untagged rows carry an empty seventh column, to the
// digests the encoding/csv writer produced.
func TestWriteCSVBytesPinned(t *testing.T) {
	untagged := scanTrace(20000, 500, 50, 11)
	tagged := scanTrace(20000, 500, 50, 12)
	north, south := MustVantage("north"), MustVantage("south")
	for i := range tagged.Events {
		switch i % 3 {
		case 1:
			tagged.Events[i].Vantage = north
		case 2:
			tagged.Events[i].Vantage = south
		}
	}
	for _, c := range []struct {
		name string
		tr   *Trace
		sha  string
	}{
		{"untagged", untagged, "fbbcc4d5b518fe4f00770bb4189fe647bbc4d26d48e25026f7a5fa868ee20413"},
		{"tagged", tagged, "0d1e83ade491730b038d9a4c699b0ee79f69f74192c8837a9d8ad3e36a372236"},
	} {
		var buf bytes.Buffer
		if err := c.tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != c.sha {
			t.Errorf("%s: WriteCSV sha256 = %x, want %s", c.name, sum, c.sha)
		}
	}
}
