// Package vecmath is the shared float32 compute layer under every hot loop
// of the pipeline: Word2Vec SGD updates, exact cosine k-NN, silhouette and
// k-means all reduce to dense dot products and axpy updates over small
// vectors. The kernels here are manually unrolled with multiple accumulators
// (breaking the floating-point dependency chain that serialises a naive
// loop) and written in the advancing-slice style the compiler can eliminate
// bounds checks for: each iteration re-slices a fixed-size window, making
// every constant index provably in range.
//
// Determinism contract: each kernel is a pure function of its inputs with a
// fixed summation order, so repeated calls — from any number of goroutines —
// produce bit-identical results. The unrolled summation order differs from
// the naive left-to-right order, so results may differ from the reference
// implementations in the last few ULPs; the property tests in this package
// bound that drift.
package vecmath

// Dot returns the float32 dot product of a and b. b must be at least as
// long as a; extra elements are ignored.
func Dot(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	for len(a) >= 8 {
		a8, b8 := a[:8], b[:8]
		s0 += a8[0] * b8[0]
		s1 += a8[1] * b8[1]
		s2 += a8[2] * b8[2]
		s3 += a8[3] * b8[3]
		s4 += a8[4] * b8[4]
		s5 += a8[5] * b8[5]
		s6 += a8[6] * b8[6]
		s7 += a8[7] * b8[7]
		a, b = a[8:], b[8:]
	}
	if len(a) >= 4 {
		a4, b4 := a[:4], b[:4]
		s0 += a4[0] * b4[0]
		s1 += a4[1] * b4[1]
		s2 += a4[2] * b4[2]
		s3 += a4[3] * b4[3]
		a, b = a[4:], b[4:]
	}
	b = b[:len(a)]
	for i := range a {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// Axpy performs y[i] += alpha*x[i] over len(x) elements. y must be at least
// as long as x.
func Axpy(alpha float32, x, y []float32) {
	y = y[:len(x)]
	for len(x) >= 4 {
		x4, y4 := x[:4], y[:4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
		x, y = x[4:], y[4:]
	}
	y = y[:len(x)]
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x in place by alpha.
func Scale(alpha float32, x []float32) {
	for len(x) >= 4 {
		x4 := x[:4]
		x4[0] *= alpha
		x4[1] *= alpha
		x4[2] *= alpha
		x4[3] *= alpha
		x = x[4:]
	}
	for i := range x {
		x[i] *= alpha
	}
}

// SquaredNorm64 returns the sum of squares of x accumulated in float64 —
// the precision L2 normalisation needs so unit norms do not drift with the
// vector's magnitude.
func SquaredNorm64(x []float32) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 4 {
		x4 := x[:4]
		s0 += float64(x4[0]) * float64(x4[0])
		s1 += float64(x4[1]) * float64(x4[1])
		s2 += float64(x4[2]) * float64(x4[2])
		s3 += float64(x4[3]) * float64(x4[3])
		x = x[4:]
	}
	for i := range x {
		s0 += float64(x[i]) * float64(x[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// Dot64 returns the dot product of a float32 vector with a float64 vector,
// accumulated in float64 — the mixed-precision form silhouette and k-means
// need for row·centroid products. b must be at least as long as a.
func Dot64(a []float32, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 {
		a4, b4 := a[:4], b[:4]
		s0 += float64(a4[0]) * b4[0]
		s1 += float64(a4[1]) * b4[1]
		s2 += float64(a4[2]) * b4[2]
		s3 += float64(a4[3]) * b4[3]
		a, b = a[4:], b[4:]
	}
	b = b[:len(a)]
	for i := range a {
		s0 += float64(a[i]) * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}
