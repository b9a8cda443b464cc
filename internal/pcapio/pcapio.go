// Package pcapio reads and writes the classic libpcap capture file format
// (https://wiki.wireshark.org/Development/LibpcapFileFormat) from scratch
// with encoding/binary. The reader takes both byte orders and both
// microsecond and nanosecond timestamp resolutions, since captures come from
// outside; the writer always writes little-endian microseconds with a
// 65535-byte snapshot length. Both stream packets without holding the
// capture in memory.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

// Magic numbers identifying byte order and timestamp resolution.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkType is the pcap link-layer header type.
type LinkType uint32

// LinkTypeEthernet is DLT_EN10MB, the only link type the darknet uses.
const LinkTypeEthernet LinkType = 1

const (
	// snaplen is the snapshot length the writer advertises and cuts to.
	snaplen = 65535
	// maxCapLen bounds a record's captured length on read, whatever
	// snapshot length the file claims: no link-layer frame comes near it,
	// so a longer record is corrupt framing.
	maxCapLen = 1 << 20
)

// ErrBadMagic is returned when the global header magic is unrecognised.
var ErrBadMagic = errors.New("pcapio: unrecognised magic number")

// ErrTruncated marks a capture that ends inside a packet record — the
// routine outcome of a collector crash or full disk. Errors wrapping it
// distinguish a cut-off tail from a clean io.EOF, so tolerant callers can
// keep the intact prefix instead of failing the whole ingest.
var ErrTruncated = errors.New("pcapio: truncated record")

// Header is the pcap per-packet record header, decoded.
type Header struct {
	Ts      time.Time
	CapLen  uint32 // bytes saved in file
	OrigLen uint32 // bytes on the wire
}

// Writer emits a pcap stream. Create with NewWriter, then call WriteHeader
// once followed by WritePacket per packet.
type Writer struct {
	w     *bufio.Writer
	wrote bool
	hdr   [16]byte // record header scratch; on the stack it would escape
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// WriteHeader writes the global file header for the given link type.
func (w *Writer) WriteHeader(link LinkType) error {
	if w.wrote {
		return errors.New("pcapio: header already written")
	}
	w.wrote = true
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)  // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4)  // version minor
	binary.LittleEndian.PutUint32(hdr[8:12], 0) // thiszone
	binary.LittleEndian.PutUint32(hdr[12:16], 0)
	binary.LittleEndian.PutUint32(hdr[16:20], snaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(link))
	_, err := w.w.Write(hdr[:])
	return err
}

// WritePacket writes one packet record. data longer than the snaplen is
// truncated in the file but the original length is preserved in the header.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	if !w.wrote {
		return errors.New("pcapio: WriteHeader not called")
	}
	capLen := uint32(min(len(data), snaplen))
	hdr := w.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:12], capLen)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	_, err := w.w.Write(data[:capLen])
	return err
}

// Flush flushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader consumes a pcap stream. It detects byte order and timestamp
// resolution from the magic number.
type Reader struct {
	r     *bufio.Reader
	order binary.ByteOrder
	nanos bool
	link  LinkType
	hdr   [16]byte // record header scratch; on the stack it would escape
	buf   []byte
}

// NewReader parses the global header of r and returns a packet reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading global header: %w", err)
	}
	pr := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		pr.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		pr.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magicLE)
	}
	pr.link = LinkType(pr.order.Uint32(hdr[20:24]))
	return pr, nil
}

// LinkType returns the capture's link-layer type.
func (r *Reader) LinkType() LinkType { return r.link }

// ReadPacket returns the next packet. The returned data slice is reused on
// the next call; copy it to retain. io.EOF marks a clean end of stream; a
// stream that ends inside a record header or body yields an error wrapping
// ErrTruncated instead.
func (r *Reader) ReadPacket() (Header, []byte, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Header{}, nil, fmt.Errorf("pcapio: record header cut short: %w", ErrTruncated)
		}
		return Header{}, nil, err
	}
	sec := r.order.Uint32(hdr[0:4])
	frac := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if capLen > maxCapLen {
		return Header{}, nil, fmt.Errorf("pcapio: implausible capture length %d", capLen)
	}
	nanos := int64(frac)
	if !r.nanos {
		nanos *= 1000
	}
	h := Header{
		Ts:      time.Unix(int64(sec), nanos).UTC(),
		CapLen:  capLen,
		OrigLen: origLen,
	}
	// The buffer grows with the bytes that arrive, not with the length the
	// header claims, so a forged length costs at most twice what the file
	// holds.
	n := int(capLen)
	buf := r.buf[:0]
	for len(buf) < n {
		buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 4096)))
		m, err := io.ReadFull(r.r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Header{}, nil, fmt.Errorf("pcapio: packet body cut short at %d of %d bytes: %w",
				len(buf), n, ErrTruncated)
		}
		if err != nil {
			return Header{}, nil, fmt.Errorf("pcapio: reading packet body: %w", err)
		}
	}
	r.buf = buf
	return h, buf, nil
}
