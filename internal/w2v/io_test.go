package w2v

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/darkvec/darkvec/internal/robust"
	"github.com/darkvec/darkvec/internal/robust/faultio"
)

// ioModel trains a tiny model for serialisation tests.
func ioModel(t *testing.T) *Model {
	t.Helper()
	m, err := Train(ckCorpus(), ckConfig())
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
	if info.Kind != "model" || info.Words != m.Vocab.Size() {
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

func TestCheckpointChecksumAndLegacy(t *testing.T) {
	var saved bytes.Buffer
	_, err := TrainWithOptions(ckCorpus(), ckConfig(), TrainOptions{
		Checkpoint: func(ck *Checkpoint) error {
			saved.Reset()
			return SaveCheckpoint(&saved, ck)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := saved.Bytes()

	if _, err := LoadCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("checksummed checkpoint rejected: %v", err)
	}
	info, err := Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "checkpoint" || info.Epoch == 0 {
		t.Fatalf("Verify = %+v", info)
	}

	torn := data[:len(data)-robust.FooterSize]
	if _, err := LoadCheckpoint(bytes.NewReader(torn)); !errors.Is(err, robust.ErrChecksum) {
		t.Fatalf("footer-less checkpoint: LoadCheckpoint = %v, want ErrChecksum", err)
	}
	if _, err := Verify(bytes.NewReader(torn)); !errors.Is(err, robust.ErrChecksum) {
		t.Fatalf("footer-less checkpoint: Verify = %v, want ErrChecksum", err)
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x04
	if _, err := LoadCheckpoint(bytes.NewReader(flipped)); err == nil {
		t.Fatal("checkpoint bit flip not detected")
	}

	cut := data[:len(data)/2]
	if _, err := LoadCheckpoint(bytes.NewReader(cut)); err == nil ||
		!strings.Contains(err.Error(), "truncated checkpoint") {
		t.Fatalf("checkpoint truncation error lacks context: %v", err)
	}
}

func TestVerifyRejectsUnknownMagic(t *testing.T) {
	if _, err := Verify(strings.NewReader("GIFfy little file")); err == nil {
		t.Fatal("unknown magic must fail")
	}
	if _, err := Verify(strings.NewReader("")); err == nil {
		t.Fatal("empty file must fail")
	}
}
