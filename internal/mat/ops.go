package mat

import (
	"fmt"
	"math"
)

// Mul returns the matrix product a*b. Large products fan out over the
// package worker pool, partitioned by output row.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	ParallelFor(a.rows, chunkFor(2*a.cols*b.cols), func(lo, hi int) {
		mulRange(a, b, out, lo, hi)
	})
	return out
}

// mulRange computes rows [lo, hi) of out = a*b with a cache-blocked ikj
// kernel: k is tiled so the active band of b stays resident while the
// row block streams over it.
func mulRange(a, b, out *Matrix, lo, hi int) {
	const kTile = 128
	for k0 := 0; k0 < a.cols; k0 += kTile {
		k1 := min(k0+kTile, a.cols)
		for i := lo; i < hi; i++ {
			ai := a.data[i*a.cols:]
			oi := out.data[i*out.cols : (i+1)*out.cols]
			for k := k0; k < k1; k++ {
				aik := ai[k]
				if aik == 0 {
					continue
				}
				bk := b.data[k*b.cols : (k+1)*b.cols]
				for j, bv := range bk {
					oi[j] += aik * bv
				}
			}
		}
	}
}

// MulT returns a * bᵀ without materializing the transpose, partitioned by
// output row across the worker pool.
func MulT(a, b *Matrix) *Matrix {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulT dimension mismatch %dx%d * (%dx%d)T", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.rows)
	ParallelFor(a.rows, chunkFor(2*a.cols*b.rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.data[i*a.cols : (i+1)*a.cols]
			oi := out.data[i*out.cols:]
			for j := 0; j < b.rows; j++ {
				bj := b.data[j*b.cols : (j+1)*b.cols]
				var s float64
				for k, av := range ai {
					s += av * bj[k]
				}
				oi[j] = s
			}
		}
	})
	return out
}

// TMul returns aᵀ * b without materializing the transpose, partitioned by
// output row (a column) across the worker pool; every worker streams the
// shared rows of a and b in the same k order as the serial kernel.
func TMul(a, b *Matrix) *Matrix {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: TMul dimension mismatch (%dx%d)T * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.cols, b.cols)
	ParallelFor(a.cols, chunkFor(2*a.rows*b.cols), func(lo, hi int) {
		for k := 0; k < a.rows; k++ {
			ak := a.data[k*a.cols : (k+1)*a.cols]
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for i := lo; i < hi; i++ {
				av := ak[i]
				if av == 0 {
					continue
				}
				oi := out.data[i*out.cols : (i+1)*out.cols]
				for j, bv := range bk {
					oi[j] += av * bv
				}
			}
		}
	})
	return out
}

// AddM returns a + b.
func AddM(a, b *Matrix) *Matrix {
	sameDims("AddM", a, b)
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	sameDims("Sub", a, b)
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(s float64, a *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = s * v
	}
	return out
}

// Hadamard returns the element-wise product a∘b (the B∘X mask product in
// the TafLoc objective).
func Hadamard(a, b *Matrix) *Matrix {
	sameDims("Hadamard", a, b)
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v * b.data[i]
	}
	return out
}

// AXPY computes a += s*b in place.
func AXPY(a *Matrix, s float64, b *Matrix) {
	sameDims("AXPY", a, b)
	for i := range a.data {
		a.data[i] += s * b.data[i]
	}
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range ai {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// TMulVec returns aᵀ*x.
func TMulVec(a *Matrix, x []float64) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: TMulVec dimension mismatch (%dx%d)T * %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		ai := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range ai {
			out[j] += xi * v
		}
	}
	return out
}

// FrobNorm returns the Frobenius norm ‖a‖_F.
func FrobNorm(a *Matrix) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// FrobNorm2 returns the squared Frobenius norm ‖a‖²_F.
func FrobNorm2(a *Matrix) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func MaxAbs(a *Matrix) float64 {
	var m float64
	for _, v := range a.data {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// SpectralNorm estimates the largest singular value of a by power
// iteration on aᵀa, to relative tolerance ~1e-10 or 200 iterations.
func SpectralNorm(a *Matrix) float64 {
	if a.rows == 0 || a.cols == 0 {
		return 0
	}
	x := make([]float64, a.cols)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(len(x)))
	}
	var prev float64
	for iter := 0; iter < 200; iter++ {
		y := MulVec(a, x)
		x = TMulVec(a, y)
		n := Norm2(x)
		if n == 0 {
			return 0
		}
		for i := range x {
			x[i] /= n
		}
		s := math.Sqrt(n)
		if math.Abs(s-prev) <= 1e-10*math.Max(1, s) {
			return s
		}
		prev = s
	}
	return prev
}

func sameDims(op string, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}
