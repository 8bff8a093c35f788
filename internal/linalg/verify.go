package linalg

import (
	"errors"
	"fmt"
	"math"

	"tecfan/internal/floats"
)

// Verified solves: the numerical self-defense layer under the thermal
// integrator (DESIGN.md §15). A factorization with a marginal pivot
// (Cholesky on a nearly indefinite matrix) or a corrupted factor can return
// a solution that is quietly wrong long before it returns an error.
// VerifiedCholesky keeps the original matrix, checks the relative residual
// ‖Ax−b‖∞/‖b‖∞ after every solve, runs one step of iterative refinement when
// it exceeds the tolerance, and hands back a typed NumError — with a
// condition estimate from the pivot data the factorization already has —
// instead of propagating garbage into temperatures and metrics.

// DefaultResidualTol is the relative-residual acceptance threshold. Healthy
// conductance systems in this repo solve to ~1e-14; the gap up to 1e-8 is
// the refinement's working room, so a fault-free run never refines and the
// guarded path stays byte-identical to the unguarded one.
const DefaultResidualTol = 1e-8

// ErrDiverged marks a solve whose residual stayed above tolerance after
// refinement, or produced non-finite entries. It is the terminal error of
// the recovery ladder; NumError wraps it.
var ErrDiverged = errors.New("linalg: solve diverged (residual above tolerance after refinement)")

// NumError is the structured diagnosis of a rejected solve.
type NumError struct {
	Op          string  // the refused solver: "cholesky"
	Residual    float64 // relative residual after the last attempt
	Tol         float64 // acceptance threshold it failed
	Cond        float64 // condition estimate from the pivots
	Refinements int     // refinement steps attempted
	Err         error   // underlying sentinel (ErrDiverged)
}

func (e *NumError) Error() string {
	return fmt.Sprintf("linalg: %s solve rejected: residual %s exceeds tol %s (cond est %s, %d refinement(s)): %v",
		e.Op, SafeFloat(e.Residual), SafeFloat(e.Tol), SafeFloat(e.Cond), e.Refinements, e.Err)
}

func (e *NumError) Unwrap() error { return e.Err }

// SafeFloat formats v for diagnostics without ever emitting the literal
// tokens "NaN" or "Inf": diagnosis strings travel into results, checkpoints
// and reports, and the numfault drill greps those for leaked non-finite
// values. A diagnosis that *describes* a NaN must not trip that tripwire.
func SafeFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "not-a-number"
	case math.IsInf(v, 1):
		return "overflow(+)"
	case math.IsInf(v, -1):
		return "overflow(-)"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// finitePositive is the pivot acceptability check: Cholesky needs d > 0 and
// finite. The historical `d <= 0 || IsNaN(d)` spelling let a +Inf diagonal
// through, and sqrt(+Inf) then poisons the factor.
//
//tecfan:hotpath
func finitePositive(v float64) bool {
	return v > 0 && floats.Finite(v)
}

// relResidual returns ‖r‖∞/‖b‖∞ with r already computed, falling back to
// the absolute norm for b = 0. A NaN anywhere in r makes the result NaN,
// which compares false against any tolerance and so is rejected.
func relResidual(r, b []float64) float64 {
	var rn, bn float64
	for i := range r {
		if a := math.Abs(r[i]); a > rn || math.IsNaN(a) {
			rn = a
		}
		if a := math.Abs(b[i]); a > bn {
			bn = a
		}
	}
	if bn == 0 {
		return rn
	}
	return rn / bn
}

// VerifiedCholesky pairs a sparse Cholesky factor with the matrix it
// factored so every solve can be residual-checked and refined. Construction
// costs one copy of the matrix values; each Solve costs one extra CSR
// MulVec, O(nnz) — the same order as the substitution sweeps it verifies.
type VerifiedCholesky struct {
	chol *SparseCholesky
	a    *CSR
	tol  float64
	cond float64
	// scratch for residual/refinement, sized n — reused so steady-state
	// fixed-point loops and per-step transient solves stay allocation-free.
	ax, r, d []float64
}

// NewVerifiedCholesky factors the symmetric matrix a over pat, the
// AnalyzeCholesky result for a's pattern, and retains a copy of a for
// residual checks. tol ≤ 0 selects DefaultResidualTol.
func NewVerifiedCholesky(a *CSR, pat *CholeskyPattern, tol float64) (*VerifiedCholesky, error) {
	ch, err := pat.Factor(a)
	if err != nil {
		return nil, err
	}
	if tol <= 0 {
		tol = DefaultResidualTol
	}
	n := ch.N()
	return &VerifiedCholesky{
		chol: ch,
		a:    a.Clone(),
		tol:  tol,
		cond: ch.pivotCond(),
		ax:   make([]float64, n),
		r:    make([]float64, n),
		d:    make([]float64, n),
	}, nil
}

// Cond returns the pivot-based condition estimate.
func (v *VerifiedCholesky) Cond() float64 { return v.cond }

// N returns the system size.
func (v *VerifiedCholesky) N() int { return v.chol.N() }

// Solve computes x with A·x = b, verifies the residual, and refines once if
// needed. refined reports whether a refinement step changed x (a fault-free
// system never refines, keeping guarded runs byte-identical). On failure x
// is left as the best attempt but err is a *NumError and callers must not
// use x.
func (v *VerifiedCholesky) Solve(b, x []float64) (refined bool, err error) {
	v.chol.Solve(b, x)
	res := v.residual(b, x)
	if res <= v.tol && floats.AllFinite(x) {
		return false, nil
	}
	// One step of iterative refinement: solve A·d = r, x += d. With a
	// residual computed in working precision this recovers solves degraded
	// by mild ill-conditioning; anything it cannot fix is genuinely
	// divergent and must be refused, not retried forever.
	v.chol.Solve(v.r, v.d)
	for i := range x {
		x[i] += v.d[i]
	}
	res = v.residual(b, x)
	if res <= v.tol && floats.AllFinite(x) {
		return true, nil
	}
	//lint:tecfan-ignore allocfree -- divergence refusal path: allocates a diagnosis at most once per rejected solve
	return true, &NumError{Op: "cholesky", Residual: res, Tol: v.tol, Cond: v.cond, Refinements: 1, Err: ErrDiverged}
}

// residual fills v.r = b − A·x and returns the relative residual.
func (v *VerifiedCholesky) residual(b, x []float64) float64 {
	v.a.MulVec(x, v.ax)
	for i := range v.r {
		v.r[i] = b[i] - v.ax[i]
	}
	return relResidual(v.r, b)
}
