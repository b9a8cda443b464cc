package packet

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"github.com/darkvec/darkvec/internal/netutil"
)

var (
	testSrc = netutil.MustParseIPv4("10.1.2.3")
	testDst = netutil.MustParseIPv4("198.18.0.99")
)

func buildFrame(proto IPProtocol) []byte {
	f := Frame{Src: testSrc, Dst: testDst, Proto: proto, IPID: 42}
	switch proto {
	case IPProtocolTCP:
		f.SrcPort, f.DstPort, f.Seq = 40000, 23, 0xdeadbeef
	case IPProtocolUDP:
		f.SrcPort, f.DstPort = 5353, 53
	case IPProtocolICMPv4:
		f.ICMPID, f.ICMPSeq = 7, 1
	}
	return AppendFrame(nil, f)
}

// roundTrip fails unless AppendFrame's bytes for want decode to want.
func roundTrip(t *testing.T, want Frame) {
	t.Helper()
	got, err := Decode(AppendFrame(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	roundTrip(t, Frame{Src: testSrc, Dst: testDst, Proto: IPProtocolTCP, IPID: 42, SrcPort: 40000, DstPort: 23, Seq: 0xdeadbeef})
	frame := buildFrame(IPProtocolTCP)
	if flags := frame[ethLen+ipLen+13]; flags != tcpSyn {
		t.Errorf("flags = %#x, want SYN", flags)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	roundTrip(t, Frame{Src: testSrc, Dst: testDst, Proto: IPProtocolUDP, IPID: 42, SrcPort: 5353, DstPort: 53})
	frame := buildFrame(IPProtocolUDP)
	if n := binary.BigEndian.Uint16(frame[ethLen+ipLen+4:]); n != udpLen+1 {
		t.Errorf("udp length = %d", n)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	roundTrip(t, Frame{Src: testSrc, Dst: testDst, Proto: IPProtocolICMPv4, IPID: 42, ICMPID: 7, ICMPSeq: 1})
	if typ := buildFrame(IPProtocolICMPv4)[ethLen+ipLen]; typ != icmpEcho {
		t.Errorf("icmp type = %d, want echo request", typ)
	}
}

// TestIPv4ChecksumValid checks every checksum AppendFrame fills in: the IPv4
// header's, TCP's and UDP's over the pseudo-header, and ICMP's.
func TestIPv4ChecksumValid(t *testing.T) {
	for _, proto := range []IPProtocol{IPProtocolTCP, IPProtocolUDP, IPProtocolICMPv4} {
		frame := buildFrame(proto)
		ip, l4 := frame[ethLen:ethLen+ipLen], frame[ethLen+ipLen:]
		if got := checksum(0, ip); got != 0 {
			t.Errorf("%v: ipv4 header checksum off by %#04x", proto, got)
		}
		var sum uint32
		if proto != IPProtocolICMPv4 {
			sum = pseudoHeaderSum(Frame{Src: testSrc, Dst: testDst, Proto: proto}, len(l4))
		}
		if got := checksum(sum, l4); got != 0 {
			t.Errorf("%v: transport checksum off by %#04x", proto, got)
		}
	}
}

func TestTruncatedErrors(t *testing.T) {
	frame := buildFrame(IPProtocolTCP)
	for _, cut := range []int{0, 5, 13, 20, 33, 40, 50} {
		if _, err := Decode(frame[:cut]); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		} else if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut=%d: error %v, want ErrTruncated", cut, err)
		}
	}
}

func TestUnsupportedEtherType(t *testing.T) {
	frame := buildFrame(IPProtocolTCP)
	frame[12], frame[13] = 0x86, 0xdd // IPv6
	if _, err := Decode(frame); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("error = %v, want ErrUnsupported", err)
	}
}

func TestUnsupportedIPProtocol(t *testing.T) {
	frame := buildFrame(IPProtocolTCP)
	frame[ethLen+9] = 47 // GRE
	// Fix the header checksum so only the protocol is "wrong".
	frame[ethLen+10], frame[ethLen+11] = 0, 0
	binary.BigEndian.PutUint16(frame[ethLen+10:], checksum(0, frame[ethLen:ethLen+ipLen]))
	if _, err := Decode(frame); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("error = %v, want ErrUnsupported", err)
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq uint32, srcIP, dstIP uint32, id uint16) bool {
		want := Frame{Src: netutil.IPv4(srcIP), Dst: netutil.IPv4(dstIP), Proto: IPProtocolTCP,
			IPID: id, SrcPort: srcPort, DstPort: dstPort, Seq: seq}
		got, err := Decode(AppendFrame(nil, want))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// withOptions inserts n bytes of IPv4 options into frame, fixing IHL and
// the total length.
func withOptions(frame []byte, n int) []byte {
	l4 := ethLen + ipLen
	out := append(append(frame[:l4:l4], make([]byte, n)...), frame[l4:]...)
	out[ethLen] += byte(n / 4)
	binary.BigEndian.PutUint16(out[ethLen+2:], binary.BigEndian.Uint16(out[ethLen+2:])+uint16(n))
	return out
}

// TestIPv4Options: Decode skips IPv4 options to reach the transport header.
func TestIPv4Options(t *testing.T) {
	for _, n := range []int{4, 40} {
		got, err := Decode(withOptions(buildFrame(IPProtocolUDP), n))
		if err != nil {
			t.Fatal(err)
		}
		if got.SrcPort != 5353 || got.DstPort != 53 {
			t.Errorf("%d option bytes: udp through options broken: %+v", n, got)
		}
	}
}

// TestTCPDataOffset: Decode honours the data offset, accepting TCP options
// the frame holds and refusing a header longer than the frame.
func TestTCPDataOffset(t *testing.T) {
	frame := append(buildFrame(IPProtocolTCP), 1, 1, 1, 1)
	binary.BigEndian.PutUint16(frame[ethLen+2:], uint16(len(frame)-ethLen))
	frame[ethLen+ipLen+12] = 6 << 4
	if got, err := Decode(frame); err != nil || got.Seq != 0xdeadbeef {
		t.Fatalf("six-word header: %+v, %v", got, err)
	}
	frame[ethLen+ipLen+12] = 7 << 4
	if _, err := Decode(frame); !errors.Is(err, ErrTruncated) {
		t.Fatalf("header past the frame: %v, want ErrTruncated", err)
	}
}

func TestProtocolString(t *testing.T) {
	cases := map[IPProtocol]string{
		IPProtocolTCP: "tcp", IPProtocolUDP: "udp", IPProtocolICMPv4: "icmp", 47: "proto-47",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

// TestDecodeAllocatesNothing holds the per-frame decode to zero
// allocations.
func TestDecodeAllocatesNothing(t *testing.T) {
	frame := buildFrame(IPProtocolTCP)
	if n := testing.AllocsPerRun(100, func() { _, _ = Decode(frame) }); n != 0 {
		t.Fatalf("Decode allocates %.0f times per frame", n)
	}
}
