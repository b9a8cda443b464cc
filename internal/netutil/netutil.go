// Package netutil provides small IPv4 and randomness helpers shared by the
// darknet substrates: compact uint32 representations of IPv4 addresses,
// subnet arithmetic, and a fast deterministic PRNG suitable for reproducible
// traffic generation and embedding training.
package netutil

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// IPv4 is an IPv4 address in host byte order. It is used as a compact,
// hashable sender identity throughout the library; the dotted-quad string
// form is only materialised at the corpus boundary.
type IPv4 uint32

// ParseIPv4 parses a dotted-quad string into an IPv4. It accepts exactly four
// decimal octets in [0,255]; anything else is an error.
func ParseIPv4(s string) (IPv4, error) {
	var ip uint32
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netutil: invalid IPv4 %q: want 4 octets", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		if part == "" || len(part) > 3 {
			return 0, fmt.Errorf("netutil: invalid IPv4 %q: bad octet %q", s, part)
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("netutil: invalid IPv4 %q: bad octet %q", s, part)
		}
		ip = ip<<8 | uint32(n)
	}
	return IPv4(ip), nil
}

// MustParseIPv4 is ParseIPv4 for constants known to be valid; it panics on
// malformed input.
func MustParseIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// MaxIPv4Len is the length of the longest dotted quad, 255.255.255.255.
const MaxIPv4Len = 15

// String returns the dotted-quad form.
func (ip IPv4) String() string {
	var b [MaxIPv4Len]byte
	return string(b[:ip.Put(b[:])])
}

// AppendTo appends the dotted-quad form to dst and returns the extended
// slice; it allocates only if dst must grow.
func (ip IPv4) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, MaxIPv4Len)
	return dst[:n+ip.Put(dst[n:n+MaxIPv4Len])]
}

// Put writes the dotted-quad form into b, which must hold MaxIPv4Len bytes,
// and returns how many of them it used; the bytes of b past that are
// scratch. Each octet is one lookup in octetText: the first three are one
// four-byte store each, their dot included.
func (ip IPv4) Put(b []byte) int {
	_ = b[MaxIPv4Len-1]
	n := 0
	for shift := 24; shift > 0; shift -= 8 {
		w := octetText[byte(ip>>shift)]
		binary.LittleEndian.PutUint32(b[n:], uint32(w))
		n += int(w >> 32)
	}
	// The last octet has no dot, and starts at byte 12 at the latest: three
	// single bytes fit b where a four-byte store would not.
	w := octetText[byte(ip)]
	b[n], b[n+1], b[n+2] = byte(w), byte(w>>8), byte(w>>16)
	return n + int(w>>32) - 1
}

// octetText holds, for each octet, its decimal digits and a dot in the low
// four bytes (little-endian, first digit lowest) and the number of those
// bytes in use, the dot counted, above them.
var octetText = func() (t [256]uint64) {
	for i := range t {
		s := strconv.Itoa(i) + "."
		var w [4]byte
		copy(w[:], s)
		t[i] = uint64(binary.LittleEndian.Uint32(w[:])) | uint64(len(s))<<32
	}
	return t
}()

// Subnet returns the /n network containing ip.
func (ip IPv4) Subnet(bits int) Subnet {
	if bits < 0 || bits > 32 {
		panic("netutil: subnet prefix out of range")
	}
	return Subnet{Base: ip & mask(bits), Bits: bits}
}

func mask(bits int) IPv4 {
	if bits == 0 {
		return 0
	}
	return IPv4(^uint32(0) << (32 - bits))
}

// Subnet is an IPv4 CIDR block.
type Subnet struct {
	Base IPv4 // network address (low bits zero)
	Bits int  // prefix length
}

// ParseSubnet parses "a.b.c.d/n".
func ParseSubnet(s string) (Subnet, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Subnet{}, fmt.Errorf("netutil: invalid subnet %q: missing prefix", s)
	}
	ip, err := ParseIPv4(s[:slash])
	if err != nil {
		return Subnet{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Subnet{}, fmt.Errorf("netutil: invalid subnet %q: bad prefix", s)
	}
	return Subnet{Base: ip & mask(bits), Bits: bits}, nil
}

// MustParseSubnet is ParseSubnet that panics on malformed input.
func MustParseSubnet(s string) Subnet {
	sn, err := ParseSubnet(s)
	if err != nil {
		panic(err)
	}
	return sn
}

// String returns the CIDR form.
func (s Subnet) String() string { return fmt.Sprintf("%s/%d", s.Base, s.Bits) }

// Size returns the number of addresses in the block.
func (s Subnet) Size() uint64 { return 1 << (32 - s.Bits) }

// Contains reports whether ip falls inside the block.
func (s Subnet) Contains(ip IPv4) bool { return ip&mask(s.Bits) == s.Base }

// Addr returns the i-th address of the block. It panics if i is out of range.
func (s Subnet) Addr(i uint64) IPv4 {
	if i >= s.Size() {
		panic("netutil: address index outside subnet")
	}
	return s.Base + IPv4(i)
}

// Rand is a small, fast, seedable PRNG (splitmix64 core). It is deliberately
// not cryptographic: the library needs cheap reproducible randomness on the
// training hot path, where math/rand's lock or per-call interface overhead
// would dominate.
type Rand struct{ state uint64 }

// NewRand returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("netutil: Intn with non-positive bound")
	}
	// Lemire's multiply-shift rejection-free approximation is fine here: the
	// modulo bias for n << 2^64 is negligible for simulation purposes, but we
	// still use the 128-bit multiply trick to avoid the expensive modulo.
	hi, _ := mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Int63n returns a uniform int64 in [0,n).
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("netutil: Int63n with non-positive bound")
	}
	hi, _ := mul64(r.Uint64(), uint64(n))
	return int64(hi)
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniform float64 in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1, via
// inverse transform sampling. Multiply by the desired mean.
func (r *Rand) ExpFloat64() float64 {
	// 1-Float64() is in (0,1], avoiding log(0).
	u := 1 - r.Float64()
	return -math.Log(u)
}

// NormFloat64 returns a standard normal variate (Box–Muller; we draw two
// uniforms each time instead of caching the second deviate, keeping the
// generator state a single word).
func (r *Rand) NormFloat64() float64 {
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0,n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
