package linalg

import (
	"errors"
	"math"
	"strings"
	"testing"
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

func TestLURejectsInfPivotColumn(t *testing.T) {
	// A column whose largest magnitude is +Inf used to pass the `mx == 0`
	// check; the elimination then divides Inf/Inf.
	a := NewDense(2, 2)
	a.Set(0, 0, math.Inf(1))
	a.Set(0, 1, 1)
	a.Set(1, 0, math.Inf(1))
	a.Set(1, 1, 2)
	if _, err := NewLU(a); !errors.Is(err, ErrSingular) {
		t.Errorf("NewLU with Inf column: err = %v, want ErrSingular", err)
	}
}

func TestBandLURejectsInfPivot(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		b := NewBanded(3, 1, 1)
		for i := 0; i < 3; i++ {
			b.Set(i, i, 4)
		}
		b.Set(1, 1, inf)
		if _, err := NewBandLU(b); !errors.Is(err, ErrSingular) {
			t.Errorf("NewBandLU with pivot %v: err = %v, want ErrSingular", inf, err)
		}
	}
}

func TestSolveTridiagRejectsInfPivot(t *testing.T) {
	n := 3
	lower := []float64{0, -1, -1}
	diag := []float64{math.Inf(1), 4, 4}
	upper := []float64{-1, -1, 0}
	rhs := []float64{1, 1, 1}
	x := make([]float64, n)
	if err := SolveTridiag(lower, diag, upper, rhs, x); !errors.Is(err, ErrSingular) {
		t.Errorf("SolveTridiag with Inf pivot: err = %v, want ErrSingular", err)
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

func TestVerifiedBandLUMatchesDense(t *testing.T) {
	n := 6
	b := NewBanded(n, 1, 1)
	for i := 0; i < n; i++ {
		b.Set(i, i, 5)
		if i > 0 {
			b.Set(i, i-1, -1)
		}
		if i < n-1 {
			b.Set(i, i+1, -2)
		}
	}
	v, err := NewVerifiedBandLU(b, 0)
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
		t.Fatalf("band solve: %v", err)
	}
	if refined {
		t.Error("diagonally dominant system triggered refinement")
	}
	lu, err := NewLU(b.Dense())
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, n)
	lu.Solve(rhs, ref)
	for i := range x {
		if math.Abs(x[i]-ref[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, dense reference %v", i, x[i], ref[i])
		}
	}
}

// The classic pivoting counterexample: a tiny leading pivot without
// pivoting gives catastrophic element growth and a first solve that is
// quietly wrong. The residual check must notice and the single refinement
// step must repair it (or refuse) — never a silent bad solve.
func TestVerifiedBandLURefinementRepairsGrowth(t *testing.T) {
	b := NewBanded(2, 1, 1)
	b.Set(0, 0, 1e-20)
	b.Set(0, 1, 1)
	b.Set(1, 0, 1)
	b.Set(1, 1, 1)
	v, err := NewVerifiedBandLU(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{1, 2}
	x := make([]float64, 2)
	refined, err := v.Solve(rhs, x)
	if err != nil {
		// A clean refusal is acceptable; a silent bad solve is not.
		var ne *NumError
		if !errors.As(err, &ne) {
			t.Fatalf("err = %v, want *NumError", err)
		}
		return
	}
	if !refined {
		t.Error("expected the growth-degraded solve to need refinement")
	}
	// Independently check the returned solution.
	ax0 := 1e-20*x[0] + x[1]
	ax1 := x[0] + x[1]
	if math.Abs(ax0-1) > 1e-6 || math.Abs(ax1-2) > 1e-6 {
		t.Errorf("accepted solve has bad residual: Ax = [%v %v], b = [1 2]", ax0, ax1)
	}
	if v.Cond() < 1e10 {
		t.Errorf("cond estimate %v should reflect the 1e20 pivot growth", v.Cond())
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
