package core

import (
	"testing"

	"tecfan/internal/testenv"
)

// These tests are the dynamic half of the hot-path allocation discipline
// (DESIGN.md §18): the analyzers prove the kernels clean statically, and
// AllocsPerRun proves the scratch reuse actually works at runtime.

// TestEstimateIntoZeroAllocs proves the per-candidate kernel of the
// down-hill walk is allocation-free once its caller's Estimate buffer has
// grown to size.
func TestEstimateIntoZeroAllocs(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	c := baseCandidate(e, obs)
	var r Estimate
	est.EstimateInto(&r, obs, c) // first-use growth
	allocs := testing.AllocsPerRun(100, func() {
		est.EstimateInto(&r, obs, c)
	})
	if allocs != 0 {
		t.Fatalf("EstimateInto allocates %.1f per call; candidate evaluation must be allocation-free", allocs)
	}
}

// TestControlSteadyStateZeroAllocs proves one full lower-level control
// period — candidate construction, the hot/cool iteration's trial loop,
// the decision — allocates nothing once the controller's scratch buffers
// are warm.
func TestControlSteadyStateZeroAllocs(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	ctl := NewController(est)
	for i := 0; i < 3; i++ {
		ctl.Control(obs) // warm the scratch candidates and estimates
	}
	allocs := testing.AllocsPerRun(100, func() {
		ctl.Control(obs)
	})
	if allocs != 0 {
		t.Fatalf("Control allocates %.1f per period in steady state", allocs)
	}
}

// TestSteadyPeakZeroAllocs covers the higher-level fan loop's estimator
// entry point.
func TestSteadyPeakZeroAllocs(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	c := baseCandidate(e, obs)
	est.SteadyPeak(obs, c)
	allocs := testing.AllocsPerRun(100, func() {
		est.SteadyPeak(obs, c)
	})
	if allocs != 0 {
		t.Fatalf("SteadyPeak allocates %.1f per call", allocs)
	}
}

// TestBandEstimatorEvalCoreZeroAllocs covers the §III-E per-core solve.
func TestBandEstimatorEvalCoreZeroAllocs(t *testing.T) {
	e := testenv.NewQuad()
	be, err := NewBandEstimator(e.NW)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(e.Chip.Components))
	for i := range p {
		p[i] = 1
	}
	temps := make([]float64, e.NW.NumNodes())
	for i := range temps {
		temps[i] = 60
	}
	out := make([]float64, len(e.Chip.CoreComponents(0)))
	var evalErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := be.EvalCore(0, p, temps, out); err != nil {
			evalErr = err
		}
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	if allocs != 0 {
		t.Fatalf("EvalCore allocates %.1f per call", allocs)
	}
}
