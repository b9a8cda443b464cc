// Package packet decodes and encodes the one frame stack a darknet capture
// carries: Ethernet → IPv4 → TCP|UDP|ICMPv4. DarkVec reads only a few
// header fields of each packet, so a Frame is those fields; Decode fills
// one without allocating and AppendFrame writes one back with valid
// checksums, so a capture the generator writes is one external tools read.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/darkvec/darkvec/internal/netutil"
)

// IPProtocol is the IPv4 protocol number.
type IPProtocol uint8

// Protocol numbers used by the darknet stack.
const (
	IPProtocolICMPv4 IPProtocol = 1
	IPProtocolTCP    IPProtocol = 6
	IPProtocolUDP    IPProtocol = 17
)

// String returns the conventional lowercase protocol name used in service
// definitions ("tcp", "udp", "icmp").
func (p IPProtocol) String() string {
	switch p {
	case IPProtocolTCP:
		return "tcp"
	case IPProtocolUDP:
		return "udp"
	case IPProtocolICMPv4:
		return "icmp"
	}
	return fmt.Sprintf("proto-%d", uint8(p))
}

// Errors returned by Decode.
var (
	ErrTruncated   = errors.New("packet: truncated data")
	ErrUnsupported = errors.New("packet: unsupported protocol")
)

// Frame is the header fields of one Ethernet/IPv4/TCP|UDP|ICMPv4 frame.
// The transport fields belong to Proto: ports and Seq to TCP, ports to UDP,
// ICMPID and ICMPSeq to an ICMP echo; the others stay zero.
type Frame struct {
	Src, Dst         netutil.IPv4
	Proto            IPProtocol
	IPID             uint16
	SrcPort, DstPort uint16
	Seq              uint32 // TCP sequence number
	ICMPID, ICMPSeq  uint16
}

// Header lengths and fixed values of the frames AppendFrame writes.
const (
	ethLen        = 14
	ipLen         = 20 // without options
	tcpLen        = 20 // without options
	udpLen        = 8
	icmpLen       = 8
	etherTypeIPv4 = 0x0800
	ttl           = 64
	tcpSyn        = 0x02
	tcpWindow     = 14600
	icmpEcho      = 8
)

// Locally administered placeholder MACs: a darknet is a passive sensor and
// the link layer carries no analytical signal.
var (
	srcMAC = [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	dstMAC = [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
)

// Decode reads the frame's header fields from data. It skips IPv4 options,
// honours the TCP data offset and bounds the transport header by the IPv4
// total length when that length fits the data. Checksums are not verified.
// A frame cut short is ErrTruncated; a non-IPv4 ethertype, an IP version
// other than 4 or a transport other than TCP, UDP and ICMP is
// ErrUnsupported.
func Decode(data []byte) (Frame, error) {
	var f Frame
	if len(data) < ethLen {
		return f, fmt.Errorf("%w: ethernet needs 14 bytes, have %d", ErrTruncated, len(data))
	}
	if et := binary.BigEndian.Uint16(data[12:14]); et != etherTypeIPv4 {
		return f, fmt.Errorf("%w: ethertype %#04x", ErrUnsupported, et)
	}
	ip := data[ethLen:]
	if len(ip) < ipLen {
		return f, fmt.Errorf("%w: ipv4 needs 20 bytes, have %d", ErrTruncated, len(ip))
	}
	if v := ip[0] >> 4; v != 4 {
		return f, fmt.Errorf("%w: ip version %d", ErrUnsupported, v)
	}
	hlen := int(ip[0]&0x0f) * 4
	if hlen < ipLen || len(ip) < hlen {
		return f, fmt.Errorf("%w: ipv4 header length %d", ErrTruncated, hlen)
	}
	end := int(binary.BigEndian.Uint16(ip[2:4]))
	if end < hlen || end > len(ip) {
		end = len(ip)
	}
	l4 := ip[hlen:end]
	f.IPID = binary.BigEndian.Uint16(ip[4:6])
	f.Proto = IPProtocol(ip[9])
	f.Src = netutil.IPv4(binary.BigEndian.Uint32(ip[12:16]))
	f.Dst = netutil.IPv4(binary.BigEndian.Uint32(ip[16:20]))
	switch f.Proto {
	case IPProtocolTCP:
		if len(l4) < tcpLen {
			return f, fmt.Errorf("%w: tcp needs 20 bytes, have %d", ErrTruncated, len(l4))
		}
		if off := int(l4[12]>>4) * 4; off < tcpLen || len(l4) < off {
			return f, fmt.Errorf("%w: tcp header length %d", ErrTruncated, off)
		}
		f.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		f.DstPort = binary.BigEndian.Uint16(l4[2:4])
		f.Seq = binary.BigEndian.Uint32(l4[4:8])
	case IPProtocolUDP:
		if len(l4) < udpLen {
			return f, fmt.Errorf("%w: udp needs 8 bytes, have %d", ErrTruncated, len(l4))
		}
		f.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		f.DstPort = binary.BigEndian.Uint16(l4[2:4])
	case IPProtocolICMPv4:
		if len(l4) < icmpLen {
			return f, fmt.Errorf("%w: icmpv4 needs 8 bytes, have %d", ErrTruncated, len(l4))
		}
		f.ICMPID = binary.BigEndian.Uint16(l4[4:6])
		f.ICMPSeq = binary.BigEndian.Uint16(l4[6:8])
	default:
		return f, fmt.Errorf("%w: ip protocol %d", ErrUnsupported, uint8(f.Proto))
	}
	return f, nil
}

// AppendFrame appends f's wire form to b: an Ethernet II header between the
// placeholder MACs, an option-free IPv4 header (TTL 64), and a bare TCP SYN
// (window 14600), a UDP datagram carrying one zero byte, or an ICMP echo
// request, every checksum filled in. Any other Proto gets no transport
// header.
func AppendFrame(b []byte, f Frame) []byte {
	b = append(b, dstMAC[:]...)
	b = append(b, srcMAC[:]...)
	b = binary.BigEndian.AppendUint16(b, etherTypeIPv4)

	ip := len(b)
	b = append(b, 4<<4|ipLen/4, 0, 0, 0) // version, IHL, TOS, total length
	b = binary.BigEndian.AppendUint16(b, f.IPID)
	b = append(b, 0, 0, ttl, byte(f.Proto), 0, 0) // flags, TTL, protocol, checksum
	b = binary.BigEndian.AppendUint32(b, uint32(f.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(f.Dst))

	l4 := len(b)
	switch f.Proto {
	case IPProtocolTCP:
		b = binary.BigEndian.AppendUint16(b, f.SrcPort)
		b = binary.BigEndian.AppendUint16(b, f.DstPort)
		b = binary.BigEndian.AppendUint32(b, f.Seq)
		b = append(b, 0, 0, 0, 0, tcpLen/4<<4, tcpSyn) // ack, data offset, flags
		b = binary.BigEndian.AppendUint16(b, tcpWindow)
		b = append(b, 0, 0, 0, 0) // checksum, urgent pointer
		sum := checksum(pseudoHeaderSum(f, len(b)-l4), b[l4:])
		binary.BigEndian.PutUint16(b[l4+16:], sum)
	case IPProtocolUDP:
		b = binary.BigEndian.AppendUint16(b, f.SrcPort)
		b = binary.BigEndian.AppendUint16(b, f.DstPort)
		b = binary.BigEndian.AppendUint16(b, udpLen+1)
		b = append(b, 0, 0, 0) // checksum, one payload byte
		sum := checksum(pseudoHeaderSum(f, len(b)-l4), b[l4:])
		if sum == 0 {
			sum = 0xffff // RFC 768: a transmitted zero means "no checksum"
		}
		binary.BigEndian.PutUint16(b[l4+6:], sum)
	case IPProtocolICMPv4:
		b = append(b, icmpEcho, 0, 0, 0) // type, code, checksum
		b = binary.BigEndian.AppendUint16(b, f.ICMPID)
		b = binary.BigEndian.AppendUint16(b, f.ICMPSeq)
		binary.BigEndian.PutUint16(b[l4+2:], checksum(0, b[l4:]))
	}

	binary.BigEndian.PutUint16(b[ip+2:], uint16(len(b)-ip))
	binary.BigEndian.PutUint16(b[ip+10:], checksum(0, b[ip:l4]))
	return b
}

// pseudoHeaderSum is the partial checksum of the IPv4 pseudo-header TCP
// and UDP checksums cover.
func pseudoHeaderSum(f Frame, length int) uint32 {
	return uint32(f.Src>>16) + uint32(f.Src&0xffff) +
		uint32(f.Dst>>16) + uint32(f.Dst&0xffff) +
		uint32(f.Proto) + uint32(length)
}

// checksum is the Internet checksum (RFC 1071) of data, continuing the
// partial sum sum. Over a header whose checksum field holds a correct
// value it is zero.
func checksum(sum uint32, data []byte) uint16 {
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}
