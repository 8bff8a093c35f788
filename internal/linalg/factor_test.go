package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random SPD matrix A = BᵀB + n·I.
func randomSPD(rng *rand.Rand, n int) *Dense {
	b := NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.Transpose().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func residual(a *Dense, x, b []float64) float64 {
	ax := make([]float64, len(b))
	a.MulVec(x, ax)
	var mx float64
	for i := range b {
		if d := math.Abs(ax[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 9] → x = [1.5, 2].
	a := DenseFromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	ch.Solve([]float64{10, 9}, x)
	if !almostEqual(x[0], 1.5, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("x = %v, want [1.5 2]", x)
	}
	if ch.N() != 2 {
		t.Fatalf("N() = %d", ch.N())
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewDense(2, 3)); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestCholeskyFactorProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := ch.l.Mul(ch.l.Transpose())
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !almostEqual(llt.At(i, j), a.At(i, j), 1e-8*a.MaxAbs()) {
				t.Fatalf("L·Lᵀ ≠ A at (%d,%d): %v vs %v", i, j, llt.At(i, j), a.At(i, j))
			}
		}
	}
}

// Property: Cholesky solves random SPD systems to tight residual.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		ch.Solve(b, x)
		return residual(a, x, b) < 1e-7*(1+a.MaxAbs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolveInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 5)
	ch, _ := NewCholesky(a)
	b := []float64{1, 2, 3, 4, 5}
	orig := append([]float64(nil), b...)
	ch.Solve(b, b) // aliased
	if residual(a, b, orig) > 1e-8 {
		t.Fatal("in-place solve produced wrong result")
	}
}
