package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/trace"
)

// tolerant never refuses a capture for its undecodable frames.
var tolerant = robust.Budget{MaxErrors: 1 << 40}

// pcapTrace is a one-day darksim trace thinned to every sixtieth event: 116
// events, among them TCP, UDP, ICMP and Mirai-fingerprinted ones.
func pcapTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	full := darksim.Generate(darksim.Config{Seed: 7, Days: 1, Scale: 0.001, Rate: 0.05}).Trace
	var events []trace.Event
	for i := 0; i < full.Len(); i += 60 {
		events = append(events, full.Events[i])
	}
	var tcp, udp, icmp, mirai bool
	for _, e := range events {
		tcp = tcp || e.Proto == packet.IPProtocolTCP
		udp = udp || e.Proto == packet.IPProtocolUDP
		icmp = icmp || e.Proto == packet.IPProtocolICMPv4
		mirai = mirai || e.Mirai
	}
	if !tcp || !udp || !icmp || !mirai {
		tb.Fatalf("trace lacks a kind: tcp %v udp %v icmp %v mirai %v", tcp, udp, icmp, mirai)
	}
	return trace.New(events)
}

// pcapBytes is tr's WritePCAP capture.
func pcapBytes(tb testing.TB, tr *trace.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// pcapRecord is one record of a little-endian microsecond capture.
type pcapRecord struct {
	sec, usec uint32
	frame     []byte
}

// splitPCAP cuts a capture WritePCAP wrote into its global header and
// records.
func splitPCAP(tb testing.TB, capture []byte) (header []byte, recs []pcapRecord) {
	tb.Helper()
	header, rest := capture[:24], capture[24:]
	for len(rest) > 0 {
		n := binary.LittleEndian.Uint32(rest[8:12])
		recs = append(recs, pcapRecord{
			sec:   binary.LittleEndian.Uint32(rest[0:4]),
			usec:  binary.LittleEndian.Uint32(rest[4:8]),
			frame: rest[16 : 16+n],
		})
		rest = rest[16+n:]
	}
	return header, recs
}

// appendRecord appends a record whose captured and wire lengths are the
// frame's.
func appendRecord(b []byte, r pcapRecord) []byte {
	b = binary.LittleEndian.AppendUint32(b, r.sec)
	b = binary.LittleEndian.AppendUint32(b, r.usec)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.frame)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.frame)))
	return append(b, r.frame...)
}

// Offsets into an option-free Ethernet/IPv4 frame.
const (
	ethLen  = 14
	ipStart = ethLen
	l4Start = ipStart + 20
)

// mutateFrame returns a damaged copy of frame: cut at a header boundary,
// one header byte flipped (ethertype, version/IHL, total length, protocol,
// TCP data offset), 4–40 bytes of IPv4 options inserted, or garbage
// appended.
func mutateFrame(r *netutil.Rand, frame []byte) []byte {
	f := append([]byte(nil), frame...)
	flip := func(i int) {
		if i < len(f) {
			f[i] ^= byte(1 + r.Intn(255))
		}
	}
	switch r.Intn(9) {
	case 0: // intact
	case 1:
		bounds := []int{0, ethLen, l4Start, l4Start + 8, l4Start + 20}
		cut := bounds[r.Intn(len(bounds))] + r.Intn(3) - 1
		if cut >= 0 && cut < len(f) {
			f = f[:cut]
		}
	case 2:
		flip(12 + r.Intn(2)) // ethertype
	case 3:
		flip(ipStart) // version and IHL
	case 4:
		flip(ipStart + 2 + r.Intn(2)) // total length
	case 5:
		flip(ipStart + 9) // protocol
	case 6:
		flip(l4Start + 12) // TCP data offset
	case 7:
		if len(f) < l4Start {
			break
		}
		n := 4 * (1 + r.Intn(10))
		opts := make([]byte, n)
		for i := range opts {
			opts[i] = byte(r.Uint32())
		}
		f = append(append(f[:l4Start:l4Start], opts...), f[l4Start:]...)
		f[ipStart] += byte(n / 4)
		binary.BigEndian.PutUint16(f[ipStart+2:], binary.BigEndian.Uint16(f[ipStart+2:])+uint16(n))
	case 8:
		junk := make([]byte, 1+r.Intn(64))
		for i := range junk {
			junk[i] = byte(r.Uint32())
		}
		f = append(f, junk...)
	}
	return f
}

// mutatedCapture draws n frames from capture, damages each with
// mutateFrame (a quarter of them twice), and ends in a record cut inside
// its body.
func mutatedCapture(tb testing.TB, capture []byte, n int, seed uint64) []byte {
	tb.Helper()
	header, recs := splitPCAP(tb, capture)
	r := netutil.NewRand(seed)
	out := append([]byte(nil), header...)
	for i := 0; i < n; i++ {
		rec := recs[r.Intn(len(recs))]
		rec.frame = mutateFrame(r, rec.frame)
		if r.Intn(4) == 0 {
			rec.frame = mutateFrame(r, rec.frame)
		}
		out = appendRecord(out, rec)
	}
	last := appendRecord(nil, recs[0])
	return append(out, last[:len(last)-10]...)
}

// readDigest hashes ReadPCAP's events and report counts over capture.
func readDigest(tb testing.TB, capture []byte, budget robust.Budget) string {
	tb.Helper()
	tr, rep, err := trace.ReadPCAP(bytes.NewReader(capture), budget)
	if err != nil {
		tb.Fatal(err)
	}
	h := sha256.New()
	for _, e := range tr.Events {
		fmt.Fprintf(h, "%d %d %d %d %d %t\n", e.Ts, e.Src, e.Dst, e.Port, e.Proto, e.Mirai)
	}
	fmt.Fprintf(h, "read %d skipped %d truncated %t\n", rep.Read(), rep.Skipped(), rep.Truncated())
	return hex.EncodeToString(h.Sum(nil))
}

// TestPCAPCodecPinned holds the pcap codec to the bytes and decisions it
// had as a layer framework (recorded at commit 7ceed7f): (a) the capture
// WritePCAP makes of a darksim trace, and (b) what a tolerant ReadPCAP
// keeps and counts from 5,000 frames damaged at every header the decoder
// reads.
func TestPCAPCodecPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("darksim traces were recorded on amd64")
	}
	capture := pcapBytes(t, pcapTrace(t))
	if sum := sha256.Sum256(capture); hex.EncodeToString(sum[:]) != "f8175c3bf97618046177c9de935b7b866a13cef11b244a96d6d071b8e5a95428" {
		t.Errorf("(a) WritePCAP sha256 = %x", sum)
	}
	if got := readDigest(t, mutatedCapture(t, capture, 5000, 51), tolerant); got != "ec6bef9680ae5dff8b3c3fc800f32a1752255235421ac64531760b711d97f8d7" {
		t.Errorf("(b) ReadPCAP digest = %s", got)
	}
}

// forgedCapture is a 40-byte capture whose global header claims snaplen
// 0xffffffff and whose one record header claims a 64 MiB body that never
// follows.
func forgedCapture() []byte {
	b := make([]byte, 40)
	binary.LittleEndian.PutUint32(b[0:], 0xa1b2c3d4)
	binary.LittleEndian.PutUint16(b[4:], 2)
	binary.LittleEndian.PutUint16(b[6:], 4)
	binary.LittleEndian.PutUint32(b[16:], 0xffffffff)
	binary.LittleEndian.PutUint32(b[20:], 1) // Ethernet
	binary.LittleEndian.PutUint32(b[32:], 64<<20)
	binary.LittleEndian.PutUint32(b[36:], 64<<20)
	return b
}

// FuzzReadPCAP: under a tolerant budget ReadPCAP never panics, returns as
// many events as its report read, and allocates in proportion to its
// input, never to a length a header claims.
func FuzzReadPCAP(f *testing.F) {
	capture := pcapBytes(f, pcapTrace(f))
	f.Add(capture)
	f.Add(capture[:len(capture)*2/3])
	f.Add(forgedCapture())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, rep, err := trace.ReadPCAP(bytes.NewReader(data), tolerant)
		runtime.ReadMemStats(&after)
		if err == nil && int64(tr.Len()) != rep.Read() {
			t.Fatalf("%d events, report read %d", tr.Len(), rep.Read())
		}
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+32*len(data)); n > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(data), n, limit)
		}
	})
}
