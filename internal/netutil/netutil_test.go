package netutil

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestParseIPv4(t *testing.T) {
	cases := []struct {
		in   string
		want IPv4
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"10.0.0.1", 0x0a000001, true},
		{"192.168.1.2", 0xc0a80102, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"-1.0.0.1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
		{"01.2.3.4", 0x01020304, true}, // leading zeros tolerated
		{"1.2.3.1000", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIPv4(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseIPv4(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseIPv4(%q) = %#x, want %#x", c.in, uint32(got), uint32(c.want))
		}
	}
}

func TestIPv4StringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := IPv4(v)
		back, err := ParseIPv4(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// strconvIPv4 is the dotted quad through strconv, the reference AppendTo
// is held to.
func strconvIPv4(ip IPv4) string {
	var b []byte
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(ip>>shift&0xff), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return string(b)
}

// TestIPv4AppendTo: every digit-count boundary in every octet position
// formats as strconv does, appends after existing bytes, the longest
// address fits String's 15-byte buffer without growing it, and random
// addresses round-trip through ParseIPv4.
func TestIPv4AppendTo(t *testing.T) {
	var b [15]byte
	if n := testing.AllocsPerRun(100, func() { IPv4(0xffffffff).AppendTo(b[:0]) }); n != 0 {
		t.Errorf("AppendTo of 255.255.255.255 into 15 bytes allocates %v times, want 0", n)
	}
	for pos := 0; pos < 4; pos++ {
		for _, octet := range []uint32{0, 9, 10, 99, 100, 255} {
			ip := IPv4(octet<<(8*pos) | 0x01010101&^(0xff<<(8*pos)))
			if got, want := string(ip.AppendTo([]byte("x"))), "x"+strconvIPv4(ip); got != want {
				t.Errorf("AppendTo(%#08x) = %q, want %q", uint32(ip), got, want)
			}
		}
	}
	r := NewRand(29)
	var buf []byte
	for i := 0; i < 10000; i++ {
		ip := IPv4(r.Uint32())
		buf = ip.AppendTo(buf[:0])
		if back, err := ParseIPv4(string(buf)); err != nil || back != ip || string(buf) != strconvIPv4(ip) {
			t.Fatalf("%#08x formats as %q, parses back as %#08x (%v)", uint32(ip), buf, uint32(back), err)
		}
	}
}

func TestOctets(t *testing.T) {
	ip := MustParseIPv4("1.2.3.4")
	if got := ip.Octets(); got != [4]byte{1, 2, 3, 4} {
		t.Fatalf("Octets = %v", got)
	}
}

func TestSubnet(t *testing.T) {
	sn := MustParseSubnet("10.1.2.128/25")
	if sn.Base != MustParseIPv4("10.1.2.128") || sn.Bits != 25 {
		t.Fatalf("parsed %v", sn)
	}
	if sn.Size() != 128 {
		t.Fatalf("Size = %d", sn.Size())
	}
	if !sn.Contains(MustParseIPv4("10.1.2.200")) {
		t.Error("should contain 10.1.2.200")
	}
	if sn.Contains(MustParseIPv4("10.1.2.127")) {
		t.Error("should not contain 10.1.2.127")
	}
	if got := sn.Addr(5); got != MustParseIPv4("10.1.2.133") {
		t.Errorf("Addr(5) = %v", got)
	}
	if sn.String() != "10.1.2.128/25" {
		t.Errorf("String = %q", sn.String())
	}
}

func TestSubnetNormalisesBase(t *testing.T) {
	sn := MustParseSubnet("10.1.2.77/24")
	if sn.Base != MustParseIPv4("10.1.2.0") {
		t.Fatalf("base not masked: %v", sn.Base)
	}
}

func TestSubnetExtremes(t *testing.T) {
	all := MustParseSubnet("0.0.0.0/0")
	if all.Size() != 1<<32 {
		t.Fatalf("/0 size = %d", all.Size())
	}
	if !all.Contains(MustParseIPv4("200.1.2.3")) {
		t.Error("/0 must contain everything")
	}
	host := MustParseSubnet("1.2.3.4/32")
	if host.Size() != 1 || !host.Contains(MustParseIPv4("1.2.3.4")) || host.Contains(MustParseIPv4("1.2.3.5")) {
		t.Error("/32 semantics broken")
	}
}

func TestParseSubnetErrors(t *testing.T) {
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/x", "300.0.0.0/8"} {
		if _, err := ParseSubnet(s); err == nil {
			t.Errorf("ParseSubnet(%q) should fail", s)
		}
	}
}

func TestIPSubnetOfContains(t *testing.T) {
	f := func(v uint32, bits uint8) bool {
		b := int(bits % 33)
		ip := IPv4(v)
		return ip.Subnet(b).Contains(ip)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntnUniformity(t *testing.T) {
	r := NewRand(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		got := float64(c) / draws
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %.3f, want ~0.1", i, got)
		}
	}
}

func TestRandExpFloat64(t *testing.T) {
	r := NewRand(13)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Errorf("exp mean = %.3f, want ~1", mean)
	}
}

func TestRandNormFloat64(t *testing.T) {
	r := NewRand(17)
	var sum, sumSq float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean = %.3f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("normal variance = %.3f, want ~1", variance)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(19)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandShuffle(t *testing.T) {
	r := NewRand(23)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 45 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
	same := true
	for i := range xs {
		if xs[i] != orig[i] {
			same = false
		}
	}
	if same {
		t.Error("shuffle left slice unchanged (astronomically unlikely)")
	}
}
