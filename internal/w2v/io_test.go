package w2v

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
func ioModel(t *testing.T) *Model {
	t.Helper()
	m, err := Train(smallCorpus(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func saveBytes(t *testing.T, m *Model) []byte {
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
