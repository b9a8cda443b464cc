package w2v

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/darkvec/darkvec/internal/robust"
)

// File format: a small binary container ("DV2V" magic) carrying the
// vocabulary and the input-vector matrix. The output weights are training
// state and are not persisted, matching Gensim's KeyedVectors export.
//
// Both the model and checkpoint containers are sealed with a CRC32C
// checksum footer (robust.ChecksumWriter): a torn write, truncation or bit
// flip fails loudly at load time instead of serving garbage vectors. The
// footer is mandatory: a stream ending right after the payload is what a
// torn Save leaves behind, and fails with robust.ErrChecksum.
var fileMagic = [4]byte{'D', 'V', '2', 'V'}

const fileVersion = uint32(1)

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
// returned model can serve vectors but not resume training.
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
		ids:    make(map[string]int32, size),
		words:  make([]string, size),
		counts: make([]int64, size),
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
		v.words[i] = word
		v.counts[i] = int64(binary.LittleEndian.Uint64(c[:]))
		v.total += v.counts[i]
	}
	m := &Model{Vocab: v, Cfg: Config{Dim: dim}}
	m.Syn0 = make([]float32, size*dim)
	buf := make([]byte, 4)
	for i := range m.Syn0 {
		if _, err := io.ReadFull(cr, buf); err != nil {
			return nil, fmt.Errorf("w2v: truncated model (read %d of %d vector values): %w", i, len(m.Syn0), err)
		}
		m.Syn0[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf))
	}
	if err := cr.VerifyFooter(); err != nil {
		return nil, fmt.Errorf("w2v: model integrity: %w", err)
	}
	return m, nil
}

// Checkpoint container ("DVCK" magic): unlike the model export, it carries
// the full training state — config, vocabulary, input vectors, output
// weights and the trainer's progress counters — so an interrupted run can
// resume from the last completed epoch with identical results.
var ckMagic = [4]byte{'D', 'V', 'C', 'K'}

const ckVersion = uint32(1)

// SaveCheckpoint serialises the complete training state, sealed with a
// checksum footer.
func SaveCheckpoint(w io.Writer, ck *Checkpoint) error {
	if ck == nil || ck.Model == nil || ck.Model.Vocab == nil {
		return fmt.Errorf("w2v: checkpoint has no model")
	}
	bw := bufio.NewWriter(w)
	cw := robust.NewChecksumWriter(bw)
	if err := saveCheckpointPayload(cw, ck); err != nil {
		return err
	}
	if err := cw.WriteFooter(); err != nil {
		return err
	}
	return bw.Flush()
}

func saveCheckpointPayload(w io.Writer, ck *Checkpoint) error {
	m := ck.Model
	if _, err := w.Write(ckMagic[:]); err != nil {
		return err
	}
	cfg := m.Cfg
	var flags byte
	if cfg.ShrinkWindow {
		flags |= 1
	}
	if cfg.HS {
		flags |= 2
	}
	if cfg.CBOW {
		flags |= 4
	}
	hdr := binary.LittleEndian.AppendUint32(nil, ckVersion)
	for _, v := range []uint32{uint32(cfg.Dim), uint32(cfg.Window), uint32(cfg.Negative),
		uint32(cfg.Epochs), uint32(cfg.MinCount), uint32(flags)} {
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
	}
	for _, v := range []uint64{cfg.Seed, math.Float64bits(cfg.Alpha), math.Float64bits(cfg.MinAlpha),
		math.Float64bits(cfg.Subsample), uint64(ck.Epoch), uint64(ck.Processed), ck.AlphaBits, uint64(ck.Pairs)} {
		hdr = binary.LittleEndian.AppendUint64(hdr, v)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if err := writeString(w, cfg.PadToken); err != nil {
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(m.Vocab.Size()))
	if _, err := w.Write(n[:]); err != nil {
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
	for _, mat := range [][]float32{m.Syn0, m.syn1, m.synHS} {
		var l [8]byte
		binary.LittleEndian.PutUint64(l[:], uint64(len(mat)))
		if _, err := w.Write(l[:]); err != nil {
			return err
		}
		buf := make([]byte, 4)
		for _, f := range mat {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(f))
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint and verifies
// its checksum footer. The contained model carries full training state and
// can be handed to TrainOptions.Resume.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	cr := robust.NewChecksumReader(bufio.NewReader(r))
	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("w2v: reading checkpoint magic: %w", err)
	}
	if magic != ckMagic {
		return nil, fmt.Errorf("w2v: bad checkpoint magic %q", magic[:])
	}
	hdr := make([]byte, 4+6*4+8*8)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, fmt.Errorf("w2v: truncated checkpoint header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != ckVersion {
		return nil, fmt.Errorf("w2v: unsupported checkpoint version %d", v)
	}
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(hdr[4+4*i:]) }
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[4+6*4+8*i:]) }
	cfg := Config{
		Dim:       int(u32(0)),
		Window:    int(u32(1)),
		Negative:  int(u32(2)),
		Epochs:    int(u32(3)),
		MinCount:  int(u32(4)),
		Seed:      u64(0),
		Alpha:     math.Float64frombits(u64(1)),
		MinAlpha:  math.Float64frombits(u64(2)),
		Subsample: math.Float64frombits(u64(3)),
	}
	flags := byte(u32(5))
	cfg.ShrinkWindow = flags&1 != 0
	cfg.HS = flags&2 != 0
	cfg.CBOW = flags&4 != 0
	ck := &Checkpoint{
		Epoch:     int(u64(4)),
		Processed: int64(u64(5)),
		AlphaBits: u64(6),
		Pairs:     int64(u64(7)),
	}
	if cfg.Dim <= 0 || cfg.Dim > 1<<16 {
		return nil, fmt.Errorf("w2v: implausible checkpoint dim %d", cfg.Dim)
	}
	pad, err := readString(cr)
	if err != nil {
		return nil, fmt.Errorf("w2v: truncated checkpoint (pad token): %w", err)
	}
	cfg.PadToken = pad
	var n [4]byte
	if _, err := io.ReadFull(cr, n[:]); err != nil {
		return nil, fmt.Errorf("w2v: truncated checkpoint (vocabulary size): %w", err)
	}
	size := int(binary.LittleEndian.Uint32(n[:]))
	v := &Vocabulary{
		ids:    make(map[string]int32, size),
		words:  make([]string, size),
		counts: make([]int64, size),
	}
	var c [8]byte
	for i := 0; i < size; i++ {
		word, err := readString(cr)
		if err != nil {
			return nil, fmt.Errorf("w2v: truncated checkpoint (read %d of %d words): %w", i, size, err)
		}
		if _, err := io.ReadFull(cr, c[:]); err != nil {
			return nil, fmt.Errorf("w2v: truncated checkpoint (read %d of %d words): %w", i, size, err)
		}
		v.ids[word] = int32(i)
		v.words[i] = word
		v.counts[i] = int64(binary.LittleEndian.Uint64(c[:]))
		v.total += v.counts[i]
	}
	m := &Model{Vocab: v, Cfg: cfg}
	mats := make([][]float32, 3)
	for mi := range mats {
		var l [8]byte
		if _, err := io.ReadFull(cr, l[:]); err != nil {
			return nil, fmt.Errorf("w2v: truncated checkpoint (read %d of 3 matrices): %w", mi, err)
		}
		length := binary.LittleEndian.Uint64(l[:])
		if length > uint64(size+1)*uint64(cfg.Dim) {
			return nil, fmt.Errorf("w2v: implausible checkpoint matrix length %d", length)
		}
		if length == 0 {
			continue
		}
		mat := make([]float32, length)
		buf := make([]byte, 4)
		for i := range mat {
			if _, err := io.ReadFull(cr, buf); err != nil {
				return nil, fmt.Errorf("w2v: truncated checkpoint (matrix %d, read %d of %d values): %w", mi, i, len(mat), err)
			}
			mat[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf))
		}
		mats[mi] = mat
	}
	m.Syn0, m.syn1, m.synHS = mats[0], mats[1], mats[2]
	if cfg.HS {
		m.huff = buildHuffman(v.counts)
	}
	ck.Model = m
	if err := cr.VerifyFooter(); err != nil {
		return nil, fmt.Errorf("w2v: checkpoint integrity: %w", err)
	}
	return ck, nil
}

// ArtifactInfo is Verify's report on a serialised model or checkpoint.
type ArtifactInfo struct {
	Kind  string // "model" or "checkpoint"
	Words int    // vocabulary size
	Dim   int    // embedding dimension
	Epoch int    // completed epochs (checkpoints only)
}

// Verify reads a serialised artifact to completion, detecting its kind
// from the magic bytes and checking the checksum footer. It is the
// integrity probe behind `darkvec -verify`: a nil error means the artifact
// parses fully and hashes clean.
func Verify(r io.Reader) (ArtifactInfo, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return ArtifactInfo{}, fmt.Errorf("w2v: reading magic: %w", err)
	}
	switch [4]byte(magic) {
	case fileMagic:
		m, err := Load(br)
		if err != nil {
			return ArtifactInfo{Kind: "model"}, err
		}
		return ArtifactInfo{Kind: "model", Words: m.Vocab.Size(), Dim: m.Cfg.Dim}, nil
	case ckMagic:
		ck, err := LoadCheckpoint(br)
		if err != nil {
			return ArtifactInfo{Kind: "checkpoint"}, err
		}
		return ArtifactInfo{Kind: "checkpoint", Words: ck.Model.Vocab.Size(), Dim: ck.Model.Cfg.Dim, Epoch: ck.Epoch}, nil
	}
	return ArtifactInfo{}, fmt.Errorf("w2v: unrecognised artifact magic %q", magic)
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

func readString(r io.Reader) (string, error) {
	var l [2]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", err
	}
	b := make([]byte, binary.LittleEndian.Uint16(l[:]))
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
