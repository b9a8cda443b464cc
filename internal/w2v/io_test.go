package w2v

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/robust/faultio"
)

// smallCorpus is a small but non-trivial corpus: enough words and
// repetition that every epoch does real updates.
func smallCorpus() [][]string {
	var sentences [][]string
	for i := 0; i < 40; i++ {
		s := make([]string, 0, 12)
		for j := 0; j < 12; j++ {
			s = append(s, fmt.Sprintf("w%d", (i*7+j*3)%25))
		}
		sentences = append(sentences, s)
	}
	return sentences
}

func smallConfig() Config {
	return Config{
		Dim: 16, Window: 4, Epochs: 6,
		Seed: 42, ShrinkWindow: true, PadToken: "NULL",
	}
}

// ioModel trains a tiny model for serialisation tests.
func ioModel(t testing.TB) *Model {
	t.Helper()
	m, err := train(smallCorpus(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func saveBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadChecksummedRoundTrip(t *testing.T) {
	m := ioModel(t)
	data := saveBytes(t, m)
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Vocab.Size() != m.Vocab.Size() {
		t.Fatalf("vocab %d != %d", got.Vocab.Size(), m.Vocab.Size())
	}
	for i := range m.Syn0 {
		if got.Syn0[i] != m.Syn0[i] {
			t.Fatalf("Syn0[%d] diverges", i)
		}
	}
	info, err := Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Words != m.Vocab.Size() || info.Dim != m.Cfg.Dim {
		t.Fatalf("Verify = %+v", info)
	}
}

// TestLoadLegacyFooterlessModel: a stream cut exactly at the footer
// boundary is what a torn Save (payload flushed, footer not yet) leaves
// behind; the payload parses in full, so only the missing footer can tell.
func TestLoadLegacyFooterlessModel(t *testing.T) {
	data := saveBytes(t, ioModel(t))
	torn := data[:len(data)-robust.FooterSize]
	if _, err := Load(bytes.NewReader(torn)); !errors.Is(err, robust.ErrChecksum) {
		t.Fatalf("footer-less model: Load = %v, want ErrChecksum", err)
	}
	if _, err := Verify(bytes.NewReader(torn)); !errors.Is(err, robust.ErrChecksum) {
		t.Fatalf("footer-less model: Verify = %v, want ErrChecksum", err)
	}
}

func TestLoadDetectsBitFlip(t *testing.T) {
	data := saveBytes(t, ioModel(t))
	// Flip a bit inside the vector area: parsing still succeeds, only the
	// checksum can tell.
	data[len(data)-robust.FooterSize-3] ^= 0x10
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, robust.ErrChecksum) {
		t.Fatalf("bit flip not detected: %v", err)
	}
}

func TestLoadDetectsCorruptionInjectedAtWriteTime(t *testing.T) {
	// The faultio writer corrupts on the way to disk; the inner checksum
	// (computed before the fault) must catch it on load.
	m := ioModel(t)
	var buf bytes.Buffer
	if err := m.Save(faultio.CorruptWriter(&buf, 64, 0x80)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("write-time corruption not detected")
	}
}

func TestLoadTruncationHasContext(t *testing.T) {
	data := saveBytes(t, ioModel(t))
	cut := data[:len(data)/3]
	_, err := Load(bytes.NewReader(cut))
	if err == nil {
		t.Fatal("truncated model must fail")
	}
	if !strings.Contains(err.Error(), "truncated model") {
		t.Fatalf("truncation error lacks file-format context: %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("truncation error must wrap the io sentinel: %v", err)
	}
}

func TestVerifyRejectsUnknownMagic(t *testing.T) {
	// "DVCK…" is what a training checkpoint from an older build starts with.
	for _, in := range []string{"GIFfy little file", "DVCK\x01\x00\x00\x00 old checkpoint"} {
		if _, err := Verify(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "unrecognised artifact magic") {
			t.Fatalf("Verify(%q) = %v, want unrecognised artifact magic", in, err)
		}
	}
	if _, err := Verify(strings.NewReader("")); err == nil {
		t.Fatal("empty file must fail")
	}
}

// forgedModel is a 16-byte file whose header claims words × dim values and
// whose data never follows.
func forgedModel(words, dim uint32) []byte {
	b := append([]byte(nil), fileMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, fileVersion)
	b = binary.LittleEndian.AppendUint32(b, words)
	return binary.LittleEndian.AppendUint32(b, dim)
}

// loadAllocs loads data and reports the bytes the load allocated.
func loadAllocs(data []byte) (*Model, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return m, after.TotalAlloc - before.TotalAlloc, err
}

// TestLoadForgedHeader: a header claiming 2^24 words costs memory in
// proportion to the bytes that arrived, not to the size it claims.
func TestLoadForgedHeader(t *testing.T) {
	for _, words := range []uint32{1 << 24, math.MaxUint32} {
		_, n, err := loadAllocs(forgedModel(words, 1))
		if err == nil || !strings.Contains(err.Error(), "truncated model") {
			t.Fatalf("%d words: error = %v, want a truncated model", words, err)
		}
		if n >= 1<<20 {
			t.Fatalf("%d words: loading a 16-byte file allocated %d bytes", words, n)
		}
	}
}

// TestLoadAllocatesSmallModelsOnce: a model within the presize bounds is
// read into the slices the header sized, with no regrowth.
func TestLoadAllocatesSmallModelsOnce(t *testing.T) {
	m, err := Load(bytes.NewReader(saveBytes(t, ioModel(t))))
	if err != nil {
		t.Fatal(err)
	}
	if cap(m.Syn0) != len(m.Syn0) || cap(m.Vocab.words) != m.Vocab.Size() {
		t.Fatalf("Syn0 %d/%d, words %d/%d (len/cap)", len(m.Syn0), cap(m.Syn0), m.Vocab.Size(), cap(m.Vocab.words))
	}
}

// FuzzLoad: Load never panics, a model it accepts is consistent, and it
// allocates in proportion to its input plus the presize bounds, never to a
// size a header claims.
func FuzzLoad(f *testing.F) {
	valid := saveBytes(f, ioModel(f))
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])
	f.Add(forgedModel(1<<24, 1))
	f.Add(forgedModel(3, 1<<16))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := loadAllocs(data)
		if err == nil && len(m.Syn0) != m.Vocab.Size()*m.Dim() {
			t.Fatalf("accepted %d words × %d dims with %d values", m.Vocab.Size(), m.Dim(), len(m.Syn0))
		}
		if limit := uint64(2<<20 + 32*len(data)); n > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(data), n, limit)
		}
	})
}
