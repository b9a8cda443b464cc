package vecmath

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// SquaredNorm returns the sum of squares of x.
func SquaredNorm(x []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	for len(x) >= 8 {
		x8 := x[:8]
		s0 += x8[0] * x8[0]
		s1 += x8[1] * x8[1]
		s2 += x8[2] * x8[2]
		s3 += x8[3] * x8[3]
		s4 += x8[4] * x8[4]
		s5 += x8[5] * x8[5]
		s6 += x8[6] * x8[6]
		s7 += x8[7] * x8[7]
		x = x[8:]
	}
	if len(x) >= 4 {
		x4 := x[:4]
		s0 += x4[0] * x4[0]
		s1 += x4[1] * x4[1]
		s2 += x4[2] * x4[2]
		s3 += x4[3] * x4[3]
		x = x[4:]
	}
	for i := range x {
		s0 += x[i] * x[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}
