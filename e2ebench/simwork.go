package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"tecfan/internal/core"
	"tecfan/internal/exp"
	"tecfan/internal/policy"
	"tecfan/internal/sim"
	"tecfan/internal/workload"
)

// simStep is the simulator's default integration step, the one every run
// here uses.
const simStep = 100e-6

// walkFanLevel is tecfan-walk's fixed fan level (0-based; the paper's level
// 3). At the two fastest levels the controller's walk is a minority of a
// run; from this level on hot iterations evaluate hundreds of candidates.
const walkFanLevel = 2

// warmFactors fills the network's factor caches for the given fan levels:
// the lazy set-up the first run at each level would otherwise pay.
func warmFactors(env *exp.Env, levels ...int) error {
	p := make([]float64, env.NW.NumDie())
	for _, l := range levels {
		if _, err := env.NW.Steady(p, l, nil); err != nil {
			return err
		}
		if _, err := env.NW.NewTransient(l, simStep); err != nil {
			return err
		}
	}
	return nil
}

// coldThermalSetup times what a fresh daemon job pays before its first
// step: a new exp.Env, the first steady solve and the first NewTransient.
func coldThermalSetup() (time.Duration, error) {
	t0 := time.Now()
	err := warmFactors(exp.NewEnv(), 0)
	return time.Since(t0), err
}

// runCase runs one simulation through the public sim seam with ctl's
// Control calls timed. Traced runs also time the thermal step, count the
// estimator's evaluations and add it all to l.
func runCase(env *exp.Env, b *workload.Benchmark, threshold float64, level int, ctl sim.Controller, est *core.Estimator, traced bool, l *layerSample) (*sim.Result, []time.Duration, error) {
	cfg := env.SimConfig(b, threshold, level)
	span := &ctlSpan{}
	th := &thermalSpan{}
	if traced {
		cfg.NumFaults = th
		span.est = est
	}
	r, err := sim.NewRunner(cfg, wrapController(ctl, span))
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	res, err := r.Run()
	wall := time.Since(t0)
	if traced {
		l.runs++
		l.runWall += wall
		l.thermalBusy += th.busy
		l.steps += th.steps
		l.ctlBusy += span.busy()
		l.ctlCalls += int64(len(span.lat))
		l.evals += span.evals
		l.maxEvals = max(l.maxEvals, span.maxEvals)
	}
	return res, span.lat, err
}

// baseSweep is the base-sweep workload: the eight Table I base scenarios at
// paper length, in a seeded order. Untraced passes go through the public
// exp.Env.Table1 path; traced passes run the same scenarios through the sim
// seam, where the spans can attach, and must reproduce the same rows.
type baseSweep struct {
	env     *exp.Env
	benches []*workload.Benchmark
	order   []int
	ref     *reference
	peakErr float64
}

func newBaseSweep(seed int64, ref *reference) (runner, error) {
	env := exp.NewEnv()
	if err := warmFactors(env, 0); err != nil {
		return nil, err
	}
	benches := workload.Table1(env.Leak)
	return &baseSweep{
		env: env, benches: benches, ref: ref,
		order: rand.New(rand.NewSource(seed)).Perm(len(benches)),
	}, nil
}

func (w *baseSweep) peakErrC() float64 { return w.peakErr }
func (w *baseSweep) close() error      { return nil }

// The unit of work is one Table I row, i.e. one base-scenario run.
func (w *baseSweep) pass(traced bool) (*passResult, error) {
	p := newPass()
	start := time.Now()
	if !traced {
		last := start
		rows, err := w.env.Table1Opt(context.Background(), exp.Table1Options{
			Indices: w.order,
			OnRow: func(exp.Table1Row) {
				now := time.Now()
				p.ops = append(p.ops, now.Sub(last))
				last = now
			},
		})
		p.wall = time.Since(start)
		p.attempted = len(w.order)
		for _, row := range rows {
			w.checkRow(p, row, nil)
		}
		if err != nil {
			for range w.order[len(rows):] {
				p.fail("table1: %v", err)
			}
		}
		return p, nil
	}
	for _, i := range w.order {
		b := w.benches[i]
		t0 := time.Now()
		res, _, err := runCase(w.env, b, b.TargetPeak, 0, policy.FanOnly{}, nil, true, &p.layer)
		p.ops = append(p.ops, time.Since(t0))
		p.attempted++
		if err != nil {
			p.fail("%s-%d: %v", b.Name, b.Threads, err)
			continue
		}
		w.checkRow(p, table1Row(w.env, b, res), res)
	}
	p.wall = time.Since(start)
	return p, nil
}

// table1Row builds a Table I row the way exp.Env.Table1 does, so a traced
// pass can be checked bit for bit against an untraced one.
func table1Row(env *exp.Env, b *workload.Benchmark, res *sim.Result) exp.Table1Row {
	return exp.Table1Row{
		Workload:   b.Name,
		Threads:    b.Threads,
		TimeMS:     res.Metrics.Time * 1000 / env.Scale,
		Power:      res.Metrics.AvgPower - env.Fan.Power(0),
		PeakT:      res.Metrics.PeakTemp,
		PaperPeakT: b.TargetPeak,
	}
}

// checkRow records a row's output and checks it against the reference; res
// adds the run statistics a Table I row leaves out.
func (w *baseSweep) checkRow(p *passResult, row exp.Table1Row, res *sim.Result) {
	key := fmt.Sprintf("%s-%d", row.Workload, row.Threads)
	p.outputs[key] = exactKey(row.TimeMS, row.Power, row.PeakT)
	stats := map[string]float64{"time_ms": row.TimeMS, "power_w": row.Power, "peak_c": row.PeakT}
	if res != nil {
		stats["energy_j"] = res.Metrics.Energy
		stats["violation_ratio"] = res.Metrics.ViolationRatio
	}
	if err := w.ref.check("base-sweep/"+key, stats, ""); err != nil {
		p.fail("%v", err)
	}
	w.peakErr = max(w.peakErr, math.Abs(row.PeakT-row.PaperPeakT))
}

// tecfanWalk is the tecfan-walk workload: the TECfan controller on the four
// 16-thread Fig. 5/6 benchmarks at a fixed fan level, in a seeded order.
type tecfanWalk struct {
	env     *exp.Env
	cases   []walkCase
	ref     *reference
	peakErr float64
}

type walkCase struct {
	bench     *workload.Benchmark
	threshold float64
}

func newTecfanWalk(seed int64, ref *reference) (runner, error) {
	env := exp.NewEnv()
	w := &tecfanWalk{env: env, ref: ref}
	for _, b := range workload.Fig56Benchmarks(env.Leak) {
		// T_th is the measured base-scenario peak (§IV-C), as in exp.Fig56.
		base, err := env.BaseScenario(b)
		if err != nil {
			return nil, fmt.Errorf("base scenario %s: %w", b.Name, err)
		}
		w.peakErr = max(w.peakErr, math.Abs(base.Metrics.PeakTemp-b.TargetPeak))
		w.cases = append(w.cases, walkCase{bench: b, threshold: base.Metrics.PeakTemp})
	}
	if err := warmFactors(env, walkFanLevel); err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(w.cases), func(i, j int) {
		w.cases[i], w.cases[j] = w.cases[j], w.cases[i]
	})
	return w, nil
}

func (w *tecfanWalk) peakErrC() float64 { return w.peakErr }
func (w *tecfanWalk) close() error      { return nil }

// The unit of work is one lower-level Control call.
func (w *tecfanWalk) pass(traced bool) (*passResult, error) {
	p := newPass()
	start := time.Now()
	for _, c := range w.cases {
		ctl := w.env.Controllers()["TECfan"].(*core.Controller)
		res, lat, err := runCase(w.env, c.bench, c.threshold, walkFanLevel, ctl, ctl.Est, traced, &p.layer)
		p.ops = append(p.ops, lat...)
		p.attempted++
		key := fmt.Sprintf("%s-%d@fan%d", c.bench.Name, c.bench.Threads, walkFanLevel+1)
		if err != nil {
			p.fail("%s: %v", key, err)
			continue
		}
		m := res.Metrics
		p.outputs[key] = exactKey(m.Time, m.Energy, m.PeakTemp, m.ViolationRatio)
		stats := map[string]float64{
			"time_s": m.Time, "energy_j": m.Energy,
			"peak_c": m.PeakTemp, "violation_ratio": m.ViolationRatio,
		}
		if err := w.ref.check("tecfan-walk/"+key, stats, ""); err != nil {
			p.fail("%v", err)
		}
	}
	p.wall = time.Since(start)
	return p, nil
}
