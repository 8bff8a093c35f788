package thermal

import (
	"math"
	"math/rand"
	"testing"

	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
	"tecfan/internal/tec"
)

// relDiff returns ‖a−b‖∞/‖b‖∞.
func relDiff(a, b []float64) float64 {
	var dn, bn float64
	for i := range a {
		dn = math.Max(dn, math.Abs(a[i]-b[i]))
		bn = math.Max(bn, math.Abs(b[i]))
	}
	return dn / bn
}

// denseSteady is SteadyInto's Peltier fixed point on ch, the dense
// reference factor of AssembleG(fanLevel).
func denseSteady(t *testing.T, nw *Network, ch *linalg.Cholesky, temps, power []float64, fanLevel int, ts *tec.State) {
	t.Helper()
	rhs := make([]float64, nw.NumNodes())
	next := make([]float64, nw.NumNodes())
	for iter := 0; iter < 50; iter++ {
		if err := nw.baseRHS(rhs, power, fanLevel); err != nil {
			t.Fatal(err)
		}
		nw.peltierRHS(rhs, temps, ts)
		ch.Solve(rhs, next)
		var delta float64
		for i := range temps {
			delta = math.Max(delta, math.Abs(next[i]-temps[i]))
		}
		copy(temps, next)
		if delta < steadyTol {
			return
		}
	}
	t.Fatal("dense reference fixed point did not converge")
}

// TestSparseCholeskyMatchesDense is the differential proof of the sparse
// solver path: on the quad and SCC16 networks, at every fan level, the
// CSR-assembled steady G and transient C/dt + G (at the simulator's default
// dt) solve to the dense reference within the residual tolerance, and so
// does SteadyInto with no TEC, each single TEC, and every TEC on.
func TestSparseCholeskyMatchesDense(t *testing.T) {
	const dt = 100e-6 // sim.Config's default thermal step
	tol := linalg.DefaultResidualTol
	for _, chip := range []*floorplan.Chip{floorplan.NewQuad(), floorplan.NewSCC16()} {
		nw := newTestNetwork(t, chip)
		n := nw.NumNodes()
		rng := rand.New(rand.NewSource(int64(n)))
		b := make([]float64, n)
		for i := range b {
			b[i] = 1 + rng.Float64()
		}
		xs := make([]float64, n)
		xd := make([]float64, n)
		steadyRef := make([]*linalg.Cholesky, nw.Fan.NumLevels())
		for level := 0; level < nw.Fan.NumLevels(); level++ {
			for _, step := range []float64{0, dt} {
				ref := nw.AssembleG(level)
				for i := 0; step > 0 && i < n; i++ {
					ref.Add(i, i, nw.Capacity(i)/step)
				}
				ch, err := linalg.NewCholesky(ref)
				if err != nil {
					t.Fatal(err)
				}
				ch.Solve(b, xd)
				if step == 0 {
					steadyRef[level] = ch
				}
				v, err := linalg.NewVerifiedCholesky(nw.system(level, step), nw.pattern, 0)
				if err != nil {
					t.Fatalf("%d nodes, fan %d, dt %v: %v", n, level, step, err)
				}
				refined, err := v.Solve(b, xs)
				if err != nil || refined {
					t.Fatalf("%d nodes, fan %d, dt %v: refined=%v err=%v", n, level, step, refined, err)
				}
				if d := relDiff(xs, xd); d > tol {
					t.Errorf("%d nodes, fan %d, dt %v: sparse vs dense %.3g > %g", n, level, step, d, tol)
				}
				ax := make([]float64, n)
				ref.MulVec(xs, ax)
				if r := relDiff(ax, b); r > tol {
					t.Errorf("%d nodes, fan %d, dt %v: residual vs dense matrix %.3g > %g", n, level, step, r, tol)
				}
			}
		}

		power := uniformPower(nw, 8*float64(chip.NumCores()))
		ts := tec.NewState(tec.Array(chip, tec.DefaultDevice()))
		masks := [][]int{nil} // no TEC
		all := make([]int, ts.Len())
		for l := range all {
			masks = append(masks, []int{l})
			all[l] = l
		}
		masks = append(masks, all)
		for _, on := range masks {
			for l := 0; l < ts.Len(); l++ {
				ts.Set(l, false)
			}
			for _, l := range on {
				ts.Set(l, true)
			}
			ts.Advance(1)
			for level := 0; level < nw.Fan.NumLevels(); level++ {
				sparse := make([]float64, n)
				dense := make([]float64, n)
				linalg.Fill(sparse, nw.Params.AmbientC)
				linalg.Fill(dense, nw.Params.AmbientC)
				if err := nw.SteadyInto(sparse, power, level, ts); err != nil {
					t.Fatal(err)
				}
				denseSteady(t, nw, steadyRef[level], dense, power, level, ts)
				if d := relDiff(sparse, dense); d > tol {
					t.Errorf("%d nodes, fan %d, TECs on %v: SteadyInto vs dense %.3g > %g", n, level, on, d, tol)
				}
			}
		}
	}
}

// The network's one ordering keeps its factor a small fraction of dense
// (1,697 of 46,360 strict-lower entries on SCC16).
func TestNetworkFactorIsSparse(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewSCC16())
	n := nw.NumNodes()
	if got, dense := nw.pattern.FactorNNZ(), n*(n-1)/2; got > dense/10 {
		t.Fatalf("factor nnz %d of %d dense: ordering lost its fill reduction", got, dense)
	}
}
