package vecmath

// Naive left-to-right reference implementations of every kernel. They are
// the semantic ground truth the property tests compare the unrolled kernels
// against, and the fallback a reader can diff a kernel change against. Kept
// in the package (not the test file) so benchmarks and future assembly
// kernels can reference them too.

// RefDot is the naive reference for Dot.
func RefDot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// RefAxpy is the naive reference for Axpy.
func RefAxpy(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// RefScale is the naive reference for Scale.
func RefScale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// RefSquaredNorm is the naive reference for SquaredNorm.
func RefSquaredNorm(x []float32) float32 {
	var s float32
	for i := range x {
		s += x[i] * x[i]
	}
	return s
}

// RefSquaredNorm64 is the naive reference for SquaredNorm64.
func RefSquaredNorm64(x []float32) float64 {
	var s float64
	for i := range x {
		s += float64(x[i]) * float64(x[i])
	}
	return s
}

// RefDot64 is the naive reference for Dot64.
func RefDot64(a []float32, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * b[i]
	}
	return s
}
