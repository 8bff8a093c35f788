package linalg

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// spd3 returns a small well-conditioned SPD matrix (a conductance-style
// system: diagonally dominant, symmetric).
func spd3() *Dense {
	a := NewDense(3, 3)
	vals := [][]float64{
		{4, -1, 0},
		{-1, 4, -1},
		{0, -1, 4},
	}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	return a
}

// Regression: ±Inf pivots must be rejected at factor time. The historical
// checks (`d <= 0 || IsNaN(d)`, `mx == 0 || IsNaN(mx)`) let +Inf through
// and minted NaNs downstream.
func TestCholeskyRejectsInfPivot(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		a := spd3()
		a.Set(1, 1, inf)
		if _, err := NewCholesky(a); !errors.Is(err, ErrNotSPD) {
			t.Errorf("NewCholesky with pivot %v: err = %v, want ErrNotSPD", inf, err)
		}
		m := csrOf(a)
		if _, err := AnalyzeCholesky(m).Factor(m); !errors.Is(err, ErrNotSPD) {
			t.Errorf("sparse Factor with pivot %v: err = %v, want ErrNotSPD", inf, err)
		}
		if _, err := verifiedOf(m); !errors.Is(err, ErrNotSPD) {
			t.Errorf("NewVerifiedCholesky with pivot %v: err = %v, want ErrNotSPD", inf, err)
		}
	}
}

// A healthy solve must not refine: the verified path has to stay
// byte-identical to the plain factorization on well-conditioned systems.
func TestVerifiedCholeskyNoRefinementOnHealthySystem(t *testing.T) {
	a := spd3()
	v, err := verifiedOf(csrOf(a))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	xv := make([]float64, 3)
	xp := make([]float64, 3)
	refined, err := v.Solve(b, xv)
	if err != nil {
		t.Fatalf("verified solve: %v", err)
	}
	if refined {
		t.Error("healthy system triggered refinement; guarded path would no longer be byte-identical")
	}
	plain.Solve(b, xp)
	for i := range xv {
		if xv[i] != xp[i] {
			t.Errorf("x[%d]: verified %v != plain %v (must be bitwise equal)", i, xv[i], xp[i])
		}
	}
	if c := v.Cond(); c < 1 || c > 100 {
		t.Errorf("cond estimate %v implausible for a well-conditioned 3x3", c)
	}
}

func TestVerifiedCholeskyRejectsNonFiniteRHS(t *testing.T) {
	v, err := verifiedOf(csrOf(spd3()))
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, math.NaN(), 3}
	x := make([]float64, 3)
	_, err = v.Solve(b, x)
	var ne *NumError
	if !errors.As(err, &ne) {
		t.Fatalf("NaN rhs: err = %v, want *NumError", err)
	}
	if !errors.Is(err, ErrDiverged) {
		t.Errorf("NumError should wrap ErrDiverged, got %v", ne.Err)
	}
}

// Diagnosis strings travel into results and checkpoints; they must never
// contain the literal tokens the drill greps for.
func TestNumErrorMessageAvoidsNaNInfTokens(t *testing.T) {
	e := &NumError{
		Op:       "cholesky",
		Residual: math.NaN(),
		Tol:      DefaultResidualTol,
		Cond:     math.Inf(1),
		Err:      ErrDiverged,
	}
	msg := e.Error()
	for _, tok := range []string{"NaN", "Inf"} {
		if strings.Contains(msg, tok) {
			t.Errorf("NumError message contains %q: %s", tok, msg)
		}
	}
}

func TestSafeFloat(t *testing.T) {
	cases := map[float64]string{
		math.NaN():   "not-a-number",
		math.Inf(1):  "overflow(+)",
		math.Inf(-1): "overflow(-)",
		1.5:          "1.5",
	}
	for v, want := range cases {
		if got := SafeFloat(v); got != want {
			t.Errorf("SafeFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// randomDominantBand builds a symmetric, strictly diagonally dominant band
// matrix with half-bandwidth w and positive diagonal, hence SPD: the class
// of the per-core sub-systems the §III-E estimator factors.
func randomDominantBand(rng *rand.Rand, n, w int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j <= i+w && j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if j != i {
				sum += math.Abs(a.At(i, j))
			}
		}
		a.Set(i, i, sum+1+rng.Float64())
	}
	return a
}

func TestVerifiedCholeskyTridiagKnown(t *testing.T) {
	// [2 -1 0; -1 2 -1; 0 -1 2] x = [1 0 1] → x = [1 1 1].
	v, err := verifiedOf(csrOf(DenseFromRows([][]float64{{2, -1, 0}, {-1, 2, -1}, {0, -1, 2}})))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	if _, err := v.Solve([]float64{1, 0, 1}, x); err != nil {
		t.Fatal(err)
	}
	for i, xi := range x {
		if !almostEqual(xi, 1, 1e-12) {
			t.Fatalf("x[%d] = %v, want 1", i, xi)
		}
	}
}

// agreesWithDense draws a dominant band system of half-bandwidth w (a
// negative w draws it from 1..3) from seed and reports whether the verified
// sparse solve matches the dense Cholesky reference without refining.
func agreesWithDense(seed int64, w int) bool {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(30)
	if w < 0 {
		w = 1 + rng.Intn(3)
	}
	a := randomDominantBand(rng, n, w)
	v, err := verifiedOf(csrOf(a))
	if err != nil {
		return false
	}
	ref, err := NewCholesky(a)
	if err != nil {
		return false
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64() * 5
	}
	x := make([]float64, n)
	want := make([]float64, n)
	if refined, err := v.Solve(rhs, x); refined || err != nil {
		return false
	}
	ref.Solve(rhs, want)
	for i := range x {
		if !almostEqual(x[i], want[i], 1e-8*(1+math.Abs(want[i]))) {
			return false
		}
	}
	return true
}

// Property: on dominant band systems of half-bandwidth 1..3 the verified
// sparse solve agrees with the dense reference and never refines. The
// banded LU this was first written against is gone; every band system now
// solves through the verified Cholesky.
func TestBandLUProperty(t *testing.T) {
	f := func(seed int64) bool { return agreesWithDense(seed, -1) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: dominant tridiagonals — the half-bandwidth-1 case, once the
// Thomas algorithm's — agree with the dense reference.
func TestSolveTridiagProperty(t *testing.T) {
	f := func(seed int64) bool { return agreesWithDense(seed, 1) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A fixed diagonally dominant tridiagonal solves through the verified
// factor to the dense reference, without a refinement step.
func TestVerifiedBandLUMatchesDense(t *testing.T) {
	n := 6
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 5)
		if i > 0 {
			a.Set(i, i-1, -2)
			a.Set(i-1, i, -2)
		}
	}
	v, err := verifiedOf(csrOf(a))
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	x := make([]float64, n)
	refined, err := v.Solve(rhs, x)
	if err != nil {
		t.Fatalf("verified solve: %v", err)
	}
	if refined {
		t.Error("diagonally dominant system triggered refinement")
	}
	ref, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	ref.Solve(rhs, want)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, dense reference %v", i, x[i], want[i])
		}
	}
}

// A band matrix with a vanishing diagonal has a zero first pivot and is
// refused at factor time.
func TestBandLUSingular(t *testing.T) {
	m := csrOf(DenseFromRows([][]float64{{0, 1, 0}, {1, 0, 0}, {0, 0, 0}}))
	if _, err := verifiedOf(m); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

// A positive semi-definite matrix that only elimination reveals as singular
// is refused at factor time.
func TestLUSingular(t *testing.T) {
	m := csrOf(DenseFromRows([][]float64{{1, 2}, {2, 4}}))
	if _, err := verifiedOf(m); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

// The sparse factor solves a band system in place (b and x aliased) to a
// small residual against the original right-hand side, and a short
// right-hand side panics with ErrShape.
func TestBandLUSolveInPlaceAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomDominantBand(rng, 10, 2)
	b, err := BandedFromDense(a, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := csrOf(a)
	f, err := AnalyzeCholesky(m).Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 10 {
		t.Fatalf("N = %d", f.N())
	}
	rhs := make([]float64, 10)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), rhs...)
	f.Solve(rhs, rhs) // aliased
	ax := make([]float64, 10)
	b.MulVec(rhs, ax)
	for i := range ax {
		if !almostEqual(ax[i], orig[i], 1e-8*(1+math.Abs(orig[i]))) {
			t.Fatalf("in-place solve residual at %d: %v vs %v", i, ax[i], orig[i])
		}
	}
	defer func() {
		if r := recover(); r != ErrShape {
			t.Fatalf("short rhs: recovered %v, want ErrShape", r)
		}
	}()
	f.Solve(make([]float64, 3), make([]float64, 10))
}

// Edge cases of the verified solve: the empty system factors and solves, a
// 1×1 zero pivot is refused, and a short right-hand side panics with
// ErrShape.
func TestSolveTridiagEdgeCases(t *testing.T) {
	empty, err := verifiedOf(NewCSR(0, nil))
	if err != nil {
		t.Fatalf("empty system: %v", err)
	}
	if _, err := empty.Solve(nil, nil); err != nil {
		t.Fatalf("empty solve: %v", err)
	}
	if _, err := verifiedOf(NewCSR(1, []Coord{{0, 0, 0}})); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("zero pivot: err = %v, want ErrNotSPD", err)
	}
	v, err := verifiedOf(csrOf(spd3()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != ErrShape {
			t.Fatalf("short rhs: recovered %v, want ErrShape", r)
		}
	}()
	v.Solve(make([]float64, 2), make([]float64, 3))
}

// The per-core thermal chain — conductances between neighbours plus a
// ground leg per node — solves through the verified factor with the
// physical shape: the rise peaks at the heated node and decays away from it.
func TestVerifiedCholeskyThermalChain(t *testing.T) {
	n := 18
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		g := 0.05 + 0.01*float64(i%3)
		a.Set(i, i, 2*g+0.16)
		if i > 0 {
			a.Set(i, i-1, -g)
			a.Set(i-1, i, -g)
		}
	}
	v, err := verifiedOf(csrOf(a))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, n)
	p[7] = 1.5 // hot spot
	x := make([]float64, n)
	if _, err := v.Solve(p, x); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if x[i] <= 0 {
			t.Fatalf("node %d non-positive rise %v", i, x[i])
		}
		if i != 7 && x[i] >= x[7] {
			t.Fatalf("node %d (%.4f) not below the heated node (%.4f)", i, x[i], x[7])
		}
	}
	for i := 8; i < n-1; i++ {
		if x[i+1] >= x[i] {
			t.Fatalf("rise not decaying right of the spot at %d", i)
		}
	}
}

// The residual is checked against the retained matrix, not the factor, so
// a degraded factor cannot pass a bad solve. A mildly perturbed pivot gives
// a first solve above tolerance that one refinement step repairs; a grossly
// wrong factor is refused with a diagnosis, never returned silently.
func TestVerifiedCholeskyRefinement(t *testing.T) {
	a := spd3()
	b := []float64{1, 2, 3}
	x := make([]float64, 3)

	v, err := verifiedOf(csrOf(a))
	if err != nil {
		t.Fatal(err)
	}
	v.chol.diag[0] *= 1 + 1e-6
	refined, err := v.Solve(b, x)
	if err != nil {
		t.Fatalf("mildly degraded factor: %v", err)
	}
	if !refined {
		t.Error("degraded first solve was accepted without refinement")
	}
	if r := residual(a, x, b); r > DefaultResidualTol*3 {
		t.Errorf("accepted solve has residual %v", r)
	}

	v, err = verifiedOf(csrOf(a))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.chol.diag {
		v.chol.diag[i] *= 2
	}
	refined, err = v.Solve(b, x)
	var ne *NumError
	if !errors.As(err, &ne) || !errors.Is(err, ErrDiverged) {
		t.Fatalf("wrong factor: err = %v, want *NumError wrapping ErrDiverged", err)
	}
	if !refined || ne.Refinements != 1 || !(ne.Residual > ne.Tol) {
		t.Errorf("refusal diagnosis %+v: want one refinement and a residual above tol", ne)
	}
}

// The pivot-based condition estimate records a tiny pivot: a 1e-20 diagonal
// beside a unit one is a 1e20 spread.
func TestVerifiedCholeskyCondReflectsPivotSpread(t *testing.T) {
	v, err := verifiedOf(csrOf(DenseFromRows([][]float64{{1e-20, 0}, {0, 1}})))
	if err != nil {
		t.Fatal(err)
	}
	if c := v.Cond(); c < 1e19 {
		t.Errorf("cond estimate %v should reflect the 1e20 pivot spread", c)
	}
}
