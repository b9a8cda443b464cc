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
		buf = packet.AppendFrame(buf[:0], eventFrame(e, uint16(i)))
		if err := pw.WritePacket(time.Unix(e.Ts, 0).UTC(), buf); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// eventFrame is the packet one event stands for: a TCP SYN from a stable
// ephemeral port, a UDP datagram, or an ICMP echo request.
func eventFrame(e Event, ipID uint16) packet.Frame {
	f := packet.Frame{Src: e.Src, Dst: e.Dst, Proto: e.Proto, IPID: ipID}
	switch e.Proto {
	case packet.IPProtocolTCP:
		f.SrcPort, f.DstPort = ephemeralPort(e.Src, e.Port), e.Port
		if e.Mirai {
			f.Seq = uint32(e.Dst) // the Mirai scanner fingerprint
		} else {
			f.Seq = uint32(e.Src)*2654435761 + uint32(e.Port)
		}
	case packet.IPProtocolUDP:
		f.SrcPort, f.DstPort = ephemeralPort(e.Src, e.Port), e.Port
	case packet.IPProtocolICMPv4:
		f.ICMPID, f.ICMPSeq = uint16(e.Src), 1
	}
	return f
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
	var events []Event
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
		f, err := packet.Decode(data)
		if err != nil {
			if berr := rep.Skip(budget, fmt.Errorf("packet %d: %w", rep.Read()+rep.Skipped()+1, err)); berr != nil {
				return nil, rep, fmt.Errorf("trace: %w", berr)
			}
			continue
		}
		e := Event{Ts: hdr.Ts.Unix(), Src: f.Src, Dst: f.Dst, Port: f.DstPort, Proto: f.Proto}
		if f.Proto == packet.IPProtocolTCP {
			e.Mirai = f.Seq == uint32(f.Dst)
		}
		rep.Record()
		events = append(events, e)
	}
	if len(events) == 0 && rep.Skipped() > 0 {
		return nil, rep, errors.New("trace: no decodable packets in capture")
	}
	return New(events), rep, nil
}
