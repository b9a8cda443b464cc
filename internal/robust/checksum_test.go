package robust

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// frame writes payload through a ChecksumWriter and seals it with a footer.
func frame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := NewChecksumWriter(&buf)
	if _, err := cw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteFooter(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChecksumRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy darknet")
	framed := frame(t, payload)
	if len(framed) != len(payload)+FooterSize {
		t.Fatalf("framed length = %d, want payload+%d", len(framed), FooterSize)
	}

	cr := NewChecksumReader(bytes.NewReader(framed))
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(cr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mangled in transit")
	}
	if err := cr.VerifyFooter(); err != nil {
		t.Fatalf("VerifyFooter = %v, want nil", err)
	}
}

// A stream that ends exactly where the footer should start is where a torn
// write (payload flushed, footer not yet) stops: it must not verify.
func TestChecksumLegacyStreamHasNoFooter(t *testing.T) {
	payload := []byte("payload flushed, footer not yet")
	cr := NewChecksumReader(bytes.NewReader(payload))
	if _, err := io.Copy(io.Discard, cr); err != nil {
		t.Fatal(err)
	}
	if err := cr.VerifyFooter(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("footer-less stream verified: %v", err)
	}
}

func TestChecksumDetectsBitFlip(t *testing.T) {
	payload := []byte("sensitive model weights")
	framed := frame(t, payload)
	framed[7] ^= 0x40 // flip a payload bit

	cr := NewChecksumReader(bytes.NewReader(framed))
	if _, err := io.CopyN(io.Discard, cr, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := cr.VerifyFooter(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit flip not detected: %v", err)
	}
}

func TestChecksumDetectsTruncatedFooter(t *testing.T) {
	payload := []byte("torn write victim")
	framed := frame(t, payload)
	for _, cut := range []int{1, FooterSize - 1} {
		torn := framed[:len(framed)-cut]
		cr := NewChecksumReader(bytes.NewReader(torn))
		if _, err := io.CopyN(io.Discard, cr, int64(len(payload))); err != nil {
			t.Fatal(err)
		}
		if err := cr.VerifyFooter(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("cut %d: truncated footer not detected: %v", cut, err)
		}
	}
}

func TestChecksumDetectsLengthMismatch(t *testing.T) {
	// A footer from a shorter payload spliced onto a longer one: the length
	// check fires even though the trailing bytes parse as a valid footer.
	short := frame(t, []byte("aaaa"))
	footer := short[len(short)-FooterSize:]
	long := append([]byte("aaaaBBBB"), footer...)

	cr := NewChecksumReader(bytes.NewReader(long))
	if _, err := io.CopyN(io.Discard, cr, int64(len(long)-FooterSize)); err != nil {
		t.Fatal(err)
	}
	if err := cr.VerifyFooter(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("length mismatch not detected: %v", err)
	}
}

func TestParseFooterRejectsGarbage(t *testing.T) {
	if _, _, err := ParseFooter([]byte("short")); !errors.Is(err, ErrChecksum) {
		t.Fatalf("short footer: %v", err)
	}
	bad := make([]byte, FooterSize)
	copy(bad, "NOPE")
	if _, _, err := ParseFooter(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bad magic: %v", err)
	}
	good := frame(t, []byte("x"))
	footer := append([]byte(nil), good[len(good)-FooterSize:]...)
	footer[4] = 99 // unsupported version
	if _, _, err := ParseFooter(footer); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bad version: %v", err)
	}
}

func TestChecksumWriterSums(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChecksumWriter(&buf)
	if _, err := cw.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Write([]byte("def")); err != nil {
		t.Fatal(err)
	}
	n, crc := cw.Sum()
	if n != 6 {
		t.Fatalf("length = %d", n)
	}
	one := NewChecksumWriter(io.Discard)
	if _, err := one.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	_, want := one.Sum()
	if crc != want {
		t.Fatalf("split writes CRC %08x != single write %08x", crc, want)
	}
}
