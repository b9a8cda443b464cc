package packet

import (
	"testing"
	"testing/quick"
)

// TestDecodeNeverPanics feeds random byte soup to the decoder: whatever
// arrives on the wire, the decoder must fail cleanly, never crash. This is
// the robustness property a darknet sensor lives or dies by — it receives
// exclusively hostile input.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %d bytes: %v", len(data), r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeMutatedFrames corrupts every single byte of a valid frame, with
// and without IPv4 options, in turn; decoding must either succeed or fail
// cleanly, and header lengths must never send slicing out of bounds.
func TestDecodeMutatedFrames(t *testing.T) {
	for _, frame := range [][]byte{buildFrame(IPProtocolTCP), withOptions(buildFrame(IPProtocolTCP), 8)} {
		for i := range frame {
			for _, delta := range []byte{0x01, 0x80, 0xff} {
				mutated := append([]byte(nil), frame...)
				mutated[i] ^= delta
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panic mutating byte %d by %#x: %v", i, delta, r)
						}
					}()
					_, _ = Decode(mutated)
				}()
			}
		}
	}
}

// TestTruncationSweep decodes every prefix of a valid frame: only those
// that hold every header decode.
func TestTruncationSweep(t *testing.T) {
	for _, proto := range []IPProtocol{IPProtocolTCP, IPProtocolUDP, IPProtocolICMPv4} {
		frame := buildFrame(proto)
		headers := len(frame)
		if proto == IPProtocolUDP {
			headers-- // the one payload byte
		}
		for cut := 0; cut <= len(frame); cut++ {
			if _, err := Decode(frame[:cut]); (err == nil) != (cut >= headers) {
				t.Fatalf("proto %v: %d of %d bytes: %v", proto, cut, len(frame), err)
			}
		}
	}
}

// TestChecksumDetectsCorruption verifies the IPv4 header checksum actually
// catches bit flips in the header.
func TestChecksumDetectsCorruption(t *testing.T) {
	hdr := buildFrame(IPProtocolUDP)[ethLen : ethLen+ipLen]
	if got := checksum(0, hdr); got != 0 {
		t.Fatalf("written header checksum off by %#04x", got)
	}
	for i := range hdr {
		mutated := append([]byte(nil), hdr...)
		mutated[i] ^= 0x55
		if checksum(0, mutated) == 0 {
			// A 16-bit ones-complement sum cannot catch every possible
			// multi-bit change, but a single-byte XOR must always move it.
			t.Fatalf("byte %d corruption not detected", i)
		}
	}
}
