package linalg

import (
	"math/rand"
	"testing"
)

// Performance documentation for the numeric kernels at the problem sizes
// the thermal stack actually uses: 305 nodes (16-core compact network),
// ~3700 (grid model), 18 (per-core band).

func benchSPD(n int) *Dense {
	rng := rand.New(rand.NewSource(1))
	return randomSPD(rng, n)
}

func BenchmarkCholeskyFactor305(b *testing.B) {
	a := benchSPD(305)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolve305(b *testing.B) {
	a := benchSPD(305)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 305)
	x := make([]float64, 305)
	for i := range rhs {
		rhs[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Solve(rhs, x)
	}
}

func BenchmarkLUFactor305(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randomDiagDominant(rng, 305)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLU(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCGGridScale(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomLaplacian(rng, 3700)
	rhs := make([]float64, 3700)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, 3700)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(x, 0)
		res := m.SolveCG(rhs, x, CGOptions{Tol: 1e-9})
		if !res.Converged {
			b.Fatal("CG stalled")
		}
	}
}

func BenchmarkBandMulVec18(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	band := randomBanded(rng, 18, 1, 1)
	x := make([]float64, 18)
	y := make([]float64, 18)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		band.MulVec(x, y)
	}
}

func BenchmarkBandLUSolve18(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	band := randomDominantBanded(rng, 18, 1, 1)
	f, err := NewBandLU(band)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 18)
	x := make([]float64, 18)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Solve(rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}
