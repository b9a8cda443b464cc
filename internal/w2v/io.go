package w2v

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/darkvec/darkvec/internal/robust"
)

// File format: a small binary container ("DV2V" magic) carrying the
// vocabulary and the input-vector matrix. The output weights are training
// state and are not persisted, matching Gensim's KeyedVectors export.
//
// The container is sealed with a CRC32C checksum footer
// (robust.ChecksumWriter): a torn write, truncation or bit flip fails
// loudly at load time instead of serving garbage vectors. The footer is
// mandatory: a stream ending right after the payload is what a torn Save
// leaves behind, and fails with robust.ErrChecksum.
var fileMagic = [4]byte{'D', 'V', '2', 'V'}

const fileVersion = uint32(1)

// Load presizes from the header only up to these bounds. A model within
// them is allocated once; a larger one grows as its words and rows arrive,
// so a header that claims more than the file holds costs at most about
// twice what the file does hold, plus the bounds (≈ 1.5 MiB).
const (
	presizeWords  = 1 << 13 // vocabulary entries
	presizeValues = 1 << 18 // Syn0 values (1 MiB)
)

// Save writes the model's vocabulary and vectors, sealed with a checksum
// footer.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := robust.NewChecksumWriter(bw)
	if err := m.savePayload(cw); err != nil {
		return err
	}
	if err := cw.WriteFooter(); err != nil {
		return err
	}
	return bw.Flush()
}

func (m *Model) savePayload(w io.Writer) error {
	if _, err := w.Write(fileMagic[:]); err != nil {
		return err
	}
	hdr := make([]byte, 0, 16)
	hdr = binary.LittleEndian.AppendUint32(hdr, fileVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(m.Vocab.Size()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(m.Cfg.Dim))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for i := 0; i < m.Vocab.Size(); i++ {
		if err := writeString(w, m.Vocab.Word(int32(i))); err != nil {
			return err
		}
		var c [8]byte
		binary.LittleEndian.PutUint64(c[:], uint64(m.Vocab.Count(int32(i))))
		if _, err := w.Write(c[:]); err != nil {
			return err
		}
	}
	buf := make([]byte, 4)
	for _, f := range m.Syn0 {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(f))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a model written by Save and verifies its checksum footer. The
// returned model can serve vectors and seed a warm start (WarmSeed.Prev)
// but carries no output weights.
func Load(r io.Reader) (*Model, error) {
	cr := robust.NewChecksumReader(bufio.NewReader(r))
	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("w2v: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("w2v: bad magic %q", magic[:])
	}
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, fmt.Errorf("w2v: truncated model header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != fileVersion {
		return nil, fmt.Errorf("w2v: unsupported version %d", v)
	}
	size := int(binary.LittleEndian.Uint32(hdr[4:8]))
	dim := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if size < 0 || dim <= 0 || dim > 1<<16 {
		return nil, fmt.Errorf("w2v: implausible header size=%d dim=%d", size, dim)
	}
	v := &Vocabulary{
		ids:    make(map[string]int32, min(size, presizeWords)),
		words:  make([]string, 0, min(size, presizeWords)),
		counts: make([]int64, 0, min(size, presizeWords)),
	}
	var l [2]byte
	var c [8]byte
	for i := 0; i < size; i++ {
		if _, err := io.ReadFull(cr, l[:]); err != nil {
			return nil, fmt.Errorf("w2v: truncated model (read %d of %d words): %w", i, size, err)
		}
		wb := make([]byte, binary.LittleEndian.Uint16(l[:]))
		if _, err := io.ReadFull(cr, wb); err != nil {
			return nil, fmt.Errorf("w2v: truncated model (read %d of %d words): %w", i, size, err)
		}
		if _, err := io.ReadFull(cr, c[:]); err != nil {
			return nil, fmt.Errorf("w2v: truncated model (read %d of %d words): %w", i, size, err)
		}
		word := string(wb)
		v.ids[word] = int32(i)
		v.words = append(v.words, word)
		v.counts = append(v.counts, int64(binary.LittleEndian.Uint64(c[:])))
		v.total += v.counts[i]
	}
	m := &Model{Vocab: v, Cfg: Config{Dim: dim}}
	n := size * dim
	m.Syn0 = make([]float32, 0, min(n, presizeValues))
	buf := make([]byte, 4)
	for len(m.Syn0) < n {
		if len(m.Syn0) == cap(m.Syn0) {
			m.Syn0 = slices.Grow(m.Syn0, min(n-len(m.Syn0), len(m.Syn0)))
		}
		if _, err := io.ReadFull(cr, buf); err != nil {
			return nil, fmt.Errorf("w2v: truncated model (read %d of %d vector values): %w", len(m.Syn0), n, err)
		}
		m.Syn0 = append(m.Syn0, math.Float32frombits(binary.LittleEndian.Uint32(buf)))
	}
	if err := cr.VerifyFooter(); err != nil {
		return nil, fmt.Errorf("w2v: model integrity: %w", err)
	}
	return m, nil
}

// ArtifactInfo is Verify's report on a serialised model.
type ArtifactInfo struct {
	Words int // vocabulary size
	Dim   int // embedding dimension
}

// Verify reads a serialised model to completion, checking the magic bytes
// and the checksum footer. It is the integrity probe behind
// `darkvec -verify`: a nil error means the artifact parses fully and
// hashes clean.
func Verify(r io.Reader) (ArtifactInfo, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return ArtifactInfo{}, fmt.Errorf("w2v: reading magic: %w", err)
	}
	if [4]byte(magic) != fileMagic {
		return ArtifactInfo{}, fmt.Errorf("w2v: unrecognised artifact magic %q", magic)
	}
	m, err := Load(br)
	if err != nil {
		return ArtifactInfo{}, err
	}
	return ArtifactInfo{Words: m.Vocab.Size(), Dim: m.Cfg.Dim}, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("w2v: string too long (%d bytes)", len(s))
	}
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	if _, err := w.Write(l[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}
