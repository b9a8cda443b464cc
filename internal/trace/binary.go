package trace

import (
	"encoding/binary"
	"fmt"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
)

// Binary event encoding: the fixed-layout record format the write-ahead log
// frames on disk. It is deliberately denser than the CSV interchange form —
// a WAL append sits on the hot ingest path, and a month of replayable
// history at darknet rates is measured in gigabytes — while carrying
// exactly the same fields, vantage tag included.
//
// Layout (little-endian):
//
//	ts      int64   Unix seconds
//	src     uint32  sender IPv4
//	dst     uint32  darknet IPv4
//	port    uint16  destination port
//	proto   uint8   IPv4 protocol number (1/6/17)
//	flags   uint8   bit 0: Mirai fingerprint
//	vlen    uvarint vantage tag length in bytes
//	vantage []byte  vantage tag (absent when vlen == 0)
const binaryFixedLen = 8 + 4 + 4 + 2 + 1 + 1

const flagMirai = 1 << 0

// AppendBinary appends the event's binary record encoding to dst and
// returns the extended slice — the allocation-free formatter the WAL uses.
func (e Event) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Ts))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Dst))
	dst = binary.LittleEndian.AppendUint16(dst, e.Port)
	dst = append(dst, byte(e.Proto))
	var flags byte
	if e.Mirai {
		flags |= flagMirai
	}
	dst = append(dst, flags)
	vantage := e.Vantage.String()
	dst = binary.AppendUvarint(dst, uint64(len(vantage)))
	dst = append(dst, vantage...)
	return dst
}

// DecodeBinary decodes one AppendBinary-encoded record. The whole of b must
// be consumed — a record with trailing bytes is torn or corrupt. Validation
// matches the CSV line parser: unknown protocol numbers, flag bits,
// malformed vantage tags and a new tag the full vantage table cannot admit
// are errors, so a replayed WAL admits exactly what the wire path would
// have.
func DecodeBinary(b []byte) (Event, error) {
	var e Event
	if len(b) < binaryFixedLen {
		return e, fmt.Errorf("trace: binary record is %d bytes, want at least %d", len(b), binaryFixedLen)
	}
	e.Ts = int64(binary.LittleEndian.Uint64(b[0:8]))
	e.Src = netutil.IPv4(binary.LittleEndian.Uint32(b[8:12]))
	e.Dst = netutil.IPv4(binary.LittleEndian.Uint32(b[12:16]))
	e.Port = binary.LittleEndian.Uint16(b[16:18])
	e.Proto = packet.IPProtocol(b[18])
	switch e.Proto {
	case packet.IPProtocolTCP, packet.IPProtocolUDP, packet.IPProtocolICMPv4:
	default:
		return Event{}, fmt.Errorf("trace: binary record: bad proto %d", b[18])
	}
	flags := b[19]
	if flags&^byte(flagMirai) != 0 {
		return Event{}, fmt.Errorf("trace: binary record: unknown flag bits %#x", flags)
	}
	e.Mirai = flags&flagMirai != 0
	vlen, n := binary.Uvarint(b[binaryFixedLen:])
	if n <= 0 {
		return Event{}, fmt.Errorf("trace: binary record: bad vantage length")
	}
	rest := b[binaryFixedLen+n:]
	if uint64(len(rest)) != vlen {
		return Event{}, fmt.Errorf("trace: binary record: %d vantage bytes, header declares %d", len(rest), vlen)
	}
	var err error
	if e.Vantage, err = internVantageBytes(rest); err != nil {
		return Event{}, fmt.Errorf("trace: binary record: %w", err)
	}
	return e, nil
}
