package robust

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Checksum framing: a fixed-size trailer appended after an artifact's
// payload so a torn write, truncation or bit flip is detected at read time
// instead of being served. The footer is length-framed (the payload size is
// recorded alongside the CRC), so a verifier can both confirm integrity and
// recover the payload boundary from the file size alone.
//
// Layout (little-endian, FooterSize bytes at the very end of the stream):
//
//	magic   [4]byte  "DVCS"
//	version uint32   1
//	length  uint64   payload bytes preceding the footer
//	crc     uint32   CRC32C (Castagnoli) over those payload bytes
var footerMagic = [4]byte{'D', 'V', 'C', 'S'}

// FooterSize is the exact byte size of a checksum footer.
const FooterSize = 20

const footerVersion = uint32(1)

// castagnoli is the CRC32C polynomial table; Castagnoli has better error
// detection than IEEE and hardware support on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum marks an artifact whose checksum footer is missing where
// required, malformed, or does not match the payload. Use errors.Is.
var ErrChecksum = errors.New("robust: checksum mismatch")

// AppendFooter appends a checksum footer for a payload of the given length
// and CRC32C to b and returns the extended slice.
func AppendFooter(b []byte, length uint64, crc uint32) []byte {
	b = append(b, footerMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, footerVersion)
	b = binary.LittleEndian.AppendUint64(b, length)
	b = binary.LittleEndian.AppendUint32(b, crc)
	return b
}

// ParseFooter decodes a FooterSize-byte checksum footer, returning the
// payload length and CRC it declares. A malformed footer wraps ErrChecksum.
func ParseFooter(b []byte) (length uint64, crc uint32, err error) {
	if len(b) != FooterSize {
		return 0, 0, fmt.Errorf("%w: footer is %d bytes, want %d", ErrChecksum, len(b), FooterSize)
	}
	if [4]byte(b[0:4]) != footerMagic {
		return 0, 0, fmt.Errorf("%w: bad footer magic %q", ErrChecksum, b[0:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != footerVersion {
		return 0, 0, fmt.Errorf("%w: unsupported footer version %d", ErrChecksum, v)
	}
	return binary.LittleEndian.Uint64(b[8:16]), binary.LittleEndian.Uint32(b[16:20]), nil
}

// ChecksumWriter passes writes through to w while accumulating the CRC32C
// and byte count of everything written, so WriteFooter can seal the stream.
// The footer itself is written directly to w, outside the checksum.
type ChecksumWriter struct {
	w   io.Writer
	crc uint32
	n   uint64
}

// NewChecksumWriter wraps w.
func NewChecksumWriter(w io.Writer) *ChecksumWriter { return &ChecksumWriter{w: w} }

func (c *ChecksumWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += uint64(n)
	return n, err
}

// WriteFooter appends the checksum footer sealing everything written so
// far. Call exactly once, after the final payload byte.
func (c *ChecksumWriter) WriteFooter() error {
	_, err := c.w.Write(AppendFooter(make([]byte, 0, FooterSize), c.n, c.crc))
	return err
}

// ChecksumReader passes reads through from r while accumulating the CRC32C
// and byte count of everything read. Once the caller has consumed exactly
// the payload (formats framed with ChecksumWriter are self-delimiting),
// VerifyFooter checks the trailer.
type ChecksumReader struct {
	r   io.Reader
	crc uint32
	n   uint64
}

// NewChecksumReader wraps r.
func NewChecksumReader(r io.Reader) *ChecksumReader { return &ChecksumReader{r: r} }

func (c *ChecksumReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += uint64(n)
	return n, err
}

// Sum returns the payload length and CRC32C accumulated so far.
func (c *ChecksumReader) Sum() (length uint64, crc uint32) { return c.n, c.crc }

// VerifyFooter consumes the checksum footer that must be the next (and
// last) bytes of the underlying stream and checks it against everything
// read through the wrapper. A missing or partial footer — where a torn
// write stops — a malformed one, or a length/CRC mismatch returns an
// ErrChecksum-wrapping error.
func (c *ChecksumReader) VerifyFooter() error {
	var buf [FooterSize]byte
	if n, err := io.ReadFull(c.r, buf[:]); err != nil {
		return fmt.Errorf("%w: truncated footer (%d of %d bytes)", ErrChecksum, n, FooterSize)
	}
	length, crc, err := ParseFooter(buf[:])
	if err != nil {
		return err
	}
	if length != c.n {
		return fmt.Errorf("%w: footer declares %d payload bytes, read %d", ErrChecksum, length, c.n)
	}
	if crc != c.crc {
		return fmt.Errorf("%w: CRC32C %08x, footer declares %08x", ErrChecksum, c.crc, crc)
	}
	return nil
}
