package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(LinkTypeEthernet); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2021, 3, 2, 10, 0, 0, 123456000, time.UTC)
	pkts := [][]byte{{1, 2, 3}, {4, 5, 6, 7}, {8}}
	for i, p := range pkts {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Second), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Fatalf("link type = %d", r.LinkType())
	}
	for i, want := range pkts {
		hdr, data, err := r.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("packet %d = %v, want %v", i, data, want)
		}
		wantTs := base.Add(time.Duration(i) * time.Second)
		if hdr.Ts.Unix() != wantTs.Unix() {
			t.Errorf("packet %d ts = %v, want %v", i, hdr.Ts, wantTs)
		}
		// Microsecond resolution: fraction preserved to the microsecond.
		if hdr.Ts.Nanosecond() != 123456000 {
			t.Errorf("packet %d frac = %d", i, hdr.Ts.Nanosecond())
		}
		if hdr.CapLen != uint32(len(want)) || hdr.OrigLen != uint32(len(want)) {
			t.Errorf("packet %d lens = %d/%d", i, hdr.CapLen, hdr.OrigLen)
		}
	}
	if _, _, err := r.ReadPacket(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// handCapture writes a capture header with the given byte order, magic and
// snapshot length, then one record per body with wire length origLen (the
// body's own length when zero).
func handCapture(order binary.AppendByteOrder, magic, snaplen uint32, sec, frac, origLen uint32, bodies ...[]byte) []byte {
	b := order.AppendUint32(nil, magic)
	b = order.AppendUint16(b, 2)
	b = order.AppendUint16(b, 4)
	b = append(b, make([]byte, 8)...) // thiszone, sigfigs
	b = order.AppendUint32(b, snaplen)
	b = order.AppendUint32(b, uint32(LinkTypeEthernet))
	for _, body := range bodies {
		wire := origLen
		if wire == 0 {
			wire = uint32(len(body))
		}
		b = order.AppendUint32(b, sec)
		b = order.AppendUint32(b, frac)
		b = order.AppendUint32(b, uint32(len(body)))
		b = order.AppendUint32(b, wire)
		b = append(b, body...)
	}
	return b
}

func TestNanosecondResolution(t *testing.T) {
	for _, order := range []binary.AppendByteOrder{binary.LittleEndian, binary.BigEndian} {
		capture := handCapture(order, MagicNanoseconds, 65535, 1614643200, 987654321, 0, []byte{0xff})
		r, err := NewReader(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		hdr, _, err := r.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Ts.Unix() != 1614643200 || hdr.Ts.Nanosecond() != 987654321 {
			t.Fatalf("%v: ts = %v, nanos = %d", order, hdr.Ts, hdr.Ts.Nanosecond())
		}
	}
}

// TestSnaplenTruncation: the reader reports a record's captured and wire
// lengths apart, and the writer cuts a packet to its 65535-byte snaplen
// while keeping the wire length.
func TestSnaplenTruncation(t *testing.T) {
	capture := handCapture(binary.LittleEndian, MagicMicroseconds, 4, 0, 0, 6, []byte{1, 2, 3, 4})
	r, err := NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	hdr, data, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.CapLen != 4 || hdr.OrigLen != 6 || len(data) != 4 {
		t.Fatalf("caplen=%d origlen=%d len=%d", hdr.CapLen, hdr.OrigLen, len(data))
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(LinkTypeEthernet); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Unix(0, 0), make([]byte, 70000)); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if r, err = NewReader(&buf); err != nil {
		t.Fatal(err)
	}
	if hdr, data, err = r.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	if hdr.CapLen != 65535 || hdr.OrigLen != 70000 || len(data) != 65535 {
		t.Fatalf("written: caplen=%d origlen=%d len=%d", hdr.CapLen, hdr.OrigLen, len(data))
	}
}

func TestBigEndianReading(t *testing.T) {
	capture := handCapture(binary.BigEndian, MagicMicroseconds, 65535, 1000, 500000, 0, []byte{0xaa, 0xbb})
	r, err := NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	h, data, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if h.Ts.Unix() != 1000 || h.Ts.Nanosecond() != 500000000 {
		t.Fatalf("ts = %v", h.Ts)
	}
	if !bytes.Equal(data, []byte{0xaa, 0xbb}) {
		t.Fatalf("data = %v", data)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 24)))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("error = %v, want ErrBadMagic", err)
	}
}

func TestShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short header must fail")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHeader(LinkTypeEthernet)
	w.WritePacket(time.Unix(1, 0), []byte{1, 2, 3, 4})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPacket(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated body error = %v, want ErrTruncated", err)
	}
}

func TestTruncatedRecordHeader(t *testing.T) {
	// A capture cut inside the 16-byte record header must report
	// ErrTruncated, distinguishable from the clean io.EOF of an intact tail.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHeader(LinkTypeEthernet)
	w.WritePacket(time.Unix(1, 0), []byte{1, 2, 3, 4})
	w.Flush()
	full := buf.Bytes()
	cut := full[:len(full)-16-4+7] // global hdr + 7 bytes of the record header
	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.ReadPacket()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated header error = %v, want ErrTruncated", err)
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("truncation must not look like clean EOF")
	}
	// The intact prefix of a two-packet capture reads fine before the cut.
	var two bytes.Buffer
	w2 := NewWriter(&two)
	w2.WriteHeader(LinkTypeEthernet)
	w2.WritePacket(time.Unix(1, 0), []byte{1, 2, 3, 4})
	w2.WritePacket(time.Unix(2, 0), []byte{5, 6, 7, 8})
	w2.Flush()
	cut2 := two.Bytes()[:two.Len()-5]
	r2, err := NewReader(bytes.NewReader(cut2))
	if err != nil {
		t.Fatal(err)
	}
	if _, data, err := r2.ReadPacket(); err != nil || !bytes.Equal(data, []byte{1, 2, 3, 4}) {
		t.Fatalf("intact first packet: %v %v", data, err)
	}
	if _, _, err := r2.ReadPacket(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("second packet error = %v, want ErrTruncated", err)
	}
}

func TestWriterUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(time.Unix(0, 0), []byte{1}); err == nil {
		t.Fatal("WritePacket before WriteHeader must fail")
	}
	if err := w.WriteHeader(LinkTypeEthernet); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(LinkTypeEthernet); err == nil {
		t.Fatal("double WriteHeader must fail")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, secs []uint32) bool {
		if len(payloads) > 20 {
			payloads = payloads[:20]
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteHeader(LinkTypeEthernet); err != nil {
			return false
		}
		for i, p := range payloads {
			var sec uint32
			if len(secs) > 0 {
				sec = secs[i%len(secs)]
			}
			if err := w.WritePacket(time.Unix(int64(sec), 0), p); err != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range payloads {
			_, data, err := r.ReadPacket()
			if err != nil {
				return false
			}
			if !bytes.Equal(data, want) {
				return false
			}
		}
		_, _, err = r.ReadPacket()
		return errors.Is(err, io.EOF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReaderNeverPanics feeds random bytes to the pcap reader; malformed
// captures must fail cleanly.
func TestReaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %d bytes: %v", len(data), r)
			}
		}()
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return true
		}
		for i := 0; i < 100; i++ {
			if _, _, err := r.ReadPacket(); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestReaderWithValidHeaderGarbageBody prepends a valid global header to
// random bytes: packet records must be rejected without panicking and
// without unbounded allocation.
func TestReaderWithValidHeaderGarbageBody(t *testing.T) {
	f := func(body []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteHeader(LinkTypeEthernet); err != nil {
			return false
		}
		w.Flush()
		buf.Write(body)
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("panic: %v", rec)
			}
		}()
		for i := 0; i < 100; i++ {
			if _, _, err := r.ReadPacket(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// forgedCapture is a 40-byte capture: a global header claiming snaplen
// 0xffffffff and one record header claiming a body of capLen bytes that
// never follows.
func forgedCapture(capLen uint32) []byte {
	capture := handCapture(binary.LittleEndian, MagicMicroseconds, 0xffffffff, 0, 0, 0, nil)
	binary.LittleEndian.PutUint32(capture[24+8:], capLen)
	binary.LittleEndian.PutUint32(capture[24+12:], capLen)
	return capture
}

// TestForgedCaptureLength: a record length beyond any real frame is refused
// as corrupt framing before a byte is allocated for it, whatever snaplen
// the file's own header claims.
func TestForgedCaptureLength(t *testing.T) {
	r, err := NewReader(bytes.NewReader(forgedCapture(64 << 20)))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = r.ReadPacket()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "implausible capture length") || errors.Is(err, ErrTruncated) {
		t.Fatalf("error = %v, want an implausible capture length that is not ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("reading the forged record allocated %d bytes", n)
	}
}

// TestBodyGrowsWithTheFile: a plausible record length whose body is cut
// short costs memory in proportion to the bytes that arrived, not to the
// length the header claims.
func TestBodyGrowsWithTheFile(t *testing.T) {
	capture := append(forgedCapture(1<<20), make([]byte, 100)...)
	r, err := NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = r.ReadPacket()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("error = %v, want ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("a 100-byte body allocated %d bytes", n)
	}
}
