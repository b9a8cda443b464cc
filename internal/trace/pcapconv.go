package trace

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/pcapio"
	"github.com/darkvec/darkvec/internal/robust"
)

// Fixed MACs for synthesised frames: a darknet is a passive sensor, the link
// layer carries no analytical signal, so we use locally-administered
// placeholder addresses.
var (
	srcMAC = [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	dstMAC = [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
)

// WritePCAP serialises the trace as a libpcap capture of fully-formed
// Ethernet/IPv4/TCP|UDP|ICMP packets (checksums valid). Mirai-fingerprinted
// events get TCP sequence number == destination IP, which is what the
// labeler looks for on read-back, mirroring real Mirai scanning traffic.
func (t *Trace) WritePCAP(w io.Writer) error {
	pw := pcapio.NewWriter(w)
	if err := pw.WriteHeader(pcapio.LinkTypeEthernet); err != nil {
		return err
	}
	var buf []byte
	for i, e := range t.Events {
		buf = appendEventPacket(buf[:0], e, uint16(i))
		if err := pw.WritePacket(time.Unix(e.Ts, 0).UTC(), buf); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// appendEventPacket builds the on-the-wire bytes for one event.
func appendEventPacket(b []byte, e Event, ipID uint16) []byte {
	var l4 []byte
	switch e.Proto {
	case packet.IPProtocolTCP:
		tcp := packet.TCP{
			SrcPort: ephemeralPort(e.Src, e.Port),
			DstPort: e.Port,
			Flags:   packet.TCPSyn,
			Window:  14600,
		}
		if e.Mirai {
			tcp.Seq = uint32(e.Dst) // the Mirai scanner fingerprint
		} else {
			tcp.Seq = uint32(e.Src)*2654435761 + uint32(e.Port)
		}
		l4 = tcp.SerializeTo(nil, nil, e.Src, e.Dst)
	case packet.IPProtocolUDP:
		udp := packet.UDP{
			SrcPort: ephemeralPort(e.Src, e.Port),
			DstPort: e.Port,
		}
		l4 = udp.SerializeTo(nil, []byte{0}, e.Src, e.Dst)
	case packet.IPProtocolICMPv4:
		icmp := packet.ICMPv4{Type: 8, Code: 0, ID: uint16(e.Src), Seq: 1}
		l4 = icmp.SerializeTo(nil, nil)
	}
	ip := packet.IPv4{
		TTL:      64,
		ID:       ipID,
		Protocol: e.Proto,
		SrcIP:    e.Src,
		DstIP:    e.Dst,
	}
	ipBytes := ip.SerializeTo(nil, l4)
	eth := packet.Ethernet{SrcMAC: srcMAC, DstMAC: dstMAC, EtherType: packet.EtherTypeIPv4}
	return eth.SerializeTo(b, ipBytes)
}

// ephemeralPort picks a stable pseudo-random source port for a sender/target
// pair, in the IANA ephemeral range.
func ephemeralPort(src netutil.IPv4, dst uint16) uint16 {
	h := uint32(src)*2246822519 + uint32(dst)*374761393
	h ^= h >> 15
	return uint16(49152 + h%16384)
}

// ReadPCAP decodes a libpcap capture back into a Trace under an error
// budget, re-deriving the Mirai fingerprint from TCP sequence numbers
// exactly like the paper's labeling step does on the real trace. A packet
// that fails to decode (non-IPv4, unsupported, garbage) is charged to the
// budget. A capture that ends mid-record (pcapio.ErrTruncated), or whose
// record stream is corrupted beyond resynchronisation, keeps its intact
// prefix with the report's Truncated flag set when the budget is not
// strict, and is an error when it is. An unusable global header, an
// exhausted budget or a capture with no decodable packet is an error.
func ReadPCAP(r io.Reader, budget robust.Budget) (*Trace, *robust.IngestReport, error) {
	rep := &robust.IngestReport{}
	pr, err := pcapio.NewReader(r)
	if err != nil {
		return nil, rep, err
	}
	if pr.LinkType() != pcapio.LinkTypeEthernet {
		return nil, rep, fmt.Errorf("trace: unsupported link type %d", pr.LinkType())
	}
	var (
		events  []Event
		parser  packet.Parser
		decoded []packet.LayerType
	)
	for {
		hdr, data, err := pr.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// A cut record or a corrupt record header (implausible length,
			// reader fault) loses the framing for good: there is no record
			// boundary to resynchronise on.
			if budget.Strict() {
				return nil, rep, err
			}
			rep.Truncate(err)
			break
		}
		if err := parser.DecodeLayers(data, &decoded); err != nil {
			if berr := rep.Skip(budget, fmt.Errorf("packet %d: %w", rep.Read()+rep.Skipped()+1, err)); berr != nil {
				return nil, rep, fmt.Errorf("trace: %w", berr)
			}
			continue
		}
		e := Event{
			Ts:    hdr.Ts.Unix(),
			Src:   parser.IP.SrcIP,
			Dst:   parser.IP.DstIP,
			Proto: parser.IP.Protocol,
		}
		switch parser.IP.Protocol {
		case packet.IPProtocolTCP:
			e.Port = parser.TCP.DstPort
			e.Mirai = parser.TCP.Seq == uint32(parser.IP.DstIP)
		case packet.IPProtocolUDP:
			e.Port = parser.UDP.DstPort
		}
		rep.Record()
		events = append(events, e)
	}
	if len(events) == 0 && rep.Skipped() > 0 {
		return nil, rep, errors.New("trace: no decodable packets in capture")
	}
	return New(events), rep, nil
}
