package trace

import (
	"bytes"
	"testing"

	"github.com/darkvec/darkvec/internal/netutil"
	"github.com/darkvec/darkvec/internal/packet"
)

func mustIP(t testing.TB, s string) netutil.IPv4 {
	t.Helper()
	ip, err := netutil.ParseIPv4(s)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

func TestBinaryRoundTrip(t *testing.T) {
	events := []Event{
		{},
		{Ts: 1700000000, Src: mustIP(t, "1.2.3.4"), Dst: mustIP(t, "10.0.0.7"), Port: 23, Proto: packet.IPProtocolTCP, Mirai: true},
		{Ts: -5, Src: mustIP(t, "255.255.255.255"), Dst: mustIP(t, "0.0.0.1"), Port: 65535, Proto: packet.IPProtocolUDP},
		{Ts: 1, Proto: packet.IPProtocolICMPv4, Vantage: MustVantage("telescope-west")},
		{Ts: 9, Proto: packet.IPProtocolTCP, Port: 2323, Vantage: MustVantage("a")},
	}
	// The zero event has proto 0, which is invalid on the wire; fix it up.
	events[0].Proto = packet.IPProtocolTCP
	var buf []byte
	for _, want := range events {
		buf = want.AppendBinary(buf[:0])
		got, err := DecodeBinary(buf)
		if err != nil {
			t.Fatalf("DecodeBinary(%+v): %v", want, err)
		}
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestBinaryAppendExtends(t *testing.T) {
	e := Event{Ts: 42, Proto: packet.IPProtocolTCP, Vantage: MustVantage("v")}
	prefix := []byte("prefix")
	out := e.AppendBinary(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("AppendBinary clobbered the destination prefix")
	}
	got, err := DecodeBinary(out[len(prefix):])
	if err != nil || got != e {
		t.Fatalf("decode after prefixed append: %+v, %v", got, err)
	}
}

func TestBinaryDecodeRejects(t *testing.T) {
	good := Event{Ts: 7, Proto: packet.IPProtocolUDP, Port: 53, Vantage: MustVantage("west")}.AppendBinary(nil)
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short fixed", good[:10]},
		{"cut mid-vantage", good[:len(good)-2]},
		{"trailing garbage", append(append([]byte(nil), good...), 0xff)},
		{"bad proto", func() []byte {
			b := append([]byte(nil), good...)
			b[18] = 99
			return b
		}()},
		{"unknown flags", func() []byte {
			b := append([]byte(nil), good...)
			b[19] = 0x80
			return b
		}()},
		{"vantage with comma", func() []byte {
			// No id can name "a,b", so the tag is spliced in by hand.
			b := Event{Ts: 1, Proto: packet.IPProtocolTCP}.AppendBinary(nil)
			return append(b[:len(b)-1], 3, 'a', ',', 'b')
		}()},
		{"oversize vantage", func() []byte {
			b := Event{Ts: 1, Proto: packet.IPProtocolTCP}.AppendBinary(nil)
			b = append(b[:len(b)-1], 0x80, 0x02) // uvarint 256
			return append(b, bytes.Repeat([]byte{'v'}, MaxVantageLen+1)...)
		}()},
		{"oversize vantage length", func() []byte {
			b := Event{Ts: 1, Proto: packet.IPProtocolTCP}.AppendBinary(nil)
			// Replace the zero vlen varint with a huge one and no payload.
			return append(b[:len(b)-1], 0xff, 0xff, 0xff, 0x7f)
		}()},
	}
	for _, tc := range cases {
		if _, err := DecodeBinary(tc.b); err == nil {
			t.Errorf("%s: DecodeBinary accepted %v", tc.name, tc.b)
		}
	}
}

func FuzzDecodeBinary(f *testing.F) {
	f.Add(Event{Ts: 1700000000, Proto: packet.IPProtocolTCP, Port: 23, Mirai: true}.AppendBinary(nil))
	f.Add(Event{Ts: 1, Proto: packet.IPProtocolICMPv4, Vantage: MustVantage("west")}.AppendBinary(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, b []byte) {
		emptyFullVantageTable()
		e, err := DecodeBinary(b)
		if err != nil {
			return
		}
		// Anything the decoder accepts must re-encode byte-identically:
		// the format has exactly one encoding per event.
		if out := e.AppendBinary(nil); !bytes.Equal(out, b) {
			t.Fatalf("decode/encode not idempotent: %v -> %+v -> %v", b, e, out)
		}
	})
}
