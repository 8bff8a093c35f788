// Command e2ebench is the repository's end-to-end benchmark. It runs one of
// three workloads (or all of them) for a fixed time, checks every simulated
// result against a committed reference, and prints its metrics as one JSON
// object on the last line of standard output. With -trace 1 it attributes
// time to the program's layers from spans the benchmark hangs on public
// seams. See README.md for the workloads, metrics and layer map.
//
// Run it from the root of the repository:
//
//	bash e2ebench/run.sh --workload base-sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// stateRoot holds the daemon's state directories, relative to the working
// directory (the repository root).
const stateRoot = ".bench_build"

// Set-up is repeated at least minSetups times and until it has taken
// setupBudget seconds in total, at most maxSetups times; setup_s is the
// median.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 1.5
)

// thermalSetups is how many cold thermal set-ups a traced run times.
const thermalSetups = 5

// runner is a workload after set-up.
type runner interface {
	// pass runs the workload's case list once. Passes repeat identical
	// work; only traced passes fill the layer sample.
	pass(traced bool) (*passResult, error)
	// peakErrC is the largest |measured − paper| Table I peak temperature
	// among the base scenarios the workload ran, °C.
	peakErrC() float64
	close() error
}

var workloads = []struct {
	name  string
	setup func(seed int64, ref *reference) (runner, error)
}{
	{"base-sweep", newBaseSweep},
	{"tecfan-walk", newTecfanWalk},
	{"daemon-jobs", newDaemonJobs},
}

// passResult is what one pass observed.
type passResult struct {
	wall      time.Duration
	ops       []time.Duration   // one latency per unit of work
	attempted int               // runs or jobs started
	failures  []string          // one line per failed run or job
	outputs   map[string]string // case → exact output, for the repeat check
	layer     layerSample
}

func newPass() *passResult { return &passResult{outputs: map[string]string{}} }

func (p *passResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// layerSample is what the spans of one traced pass recorded.
type layerSample struct {
	// Simulation workloads.
	runs, steps, ctlCalls, evals, maxEvals int64
	runWall, thermalBusy, ctlBusy          time.Duration
	// daemon-jobs.
	ckptWrites, ckptBytes   int64
	fsyncs                  []time.Duration
	fsBusy                  time.Duration
	submits, results, execs []time.Duration
	allocBytes              uint64
}

// counts are the layer figures that must repeat exactly.
func (l *layerSample) counts() [7]int64 {
	return [7]int64{l.runs, l.steps, l.ctlCalls, l.evals, l.maxEvals, l.ckptWrites, l.ckptBytes}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: what a reader needs to interpret the
// metrics and to refuse comparing runs from different environments.
type report struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Trace          int               `json:"trace"`
	Env            stamp             `json:"env"`
	UntracedPasses []float64         `json:"untraced_pass_s"`
	TracedPasses   []float64         `json:"traced_pass_s"`
	OpSamples      int               `json:"op_samples"`
	TailPercentile float64           `json:"op_tail_percentile"`
	Named          map[string]metric `json:"named"`
	CountsRepeat   bool              `json:"counts_repeat"`
	Failures       []string          `json:"failures,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "all", "base-sweep, tecfan-walk, daemon-jobs or all")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 30, "measured time per workload, s")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	writeRef := fl.String("write-reference", "", "record the run's outputs into this reference file instead of checking them")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "e2ebench: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	var selected []int
	for i, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (base-sweep, tecfan-walk, daemon-jobs, all)\n", *name)
		return 2
	}
	ref, err := loadReference(*writeRef != "")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	env := envStamp(stateRoot)
	total := result{Correct: true, Metrics: map[string]metric{}}
	enc := json.NewEncoder(stdout)
	for _, i := range selected {
		w := workloads[i]
		rep, res, err := measure(w.name, w.setup, *seed, *seconds, *trace == 1, ref)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		rep.Env, rep.Trace = env, *trace
		if err := enc.Encode(rep); err != nil {
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	if *writeRef != "" {
		if err := ref.write(*writeRef); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
	}
	if err := enc.Encode(total); err != nil {
		return 1
	}
	return 0
}

// measure sets a workload up, runs passes for the given time and turns what
// they saw into the report and the result.
func measure(name string, setup func(int64, *reference) (runner, error), seed int64, seconds float64, traced bool, ref *reference) (*report, *result, error) {
	var setups []float64
	var r runner
	for len(setups) < minSetups || (len(setups) < maxSetups && sum(setups) < setupBudget) {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = setup(seed, ref); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()

	var coldThermal []float64
	if traced {
		for i := 0; i < thermalSetups; i++ {
			d, err := coldThermalSetup()
			if err != nil {
				return nil, nil, err
			}
			coldThermal = append(coldThermal, float64(d)/float64(time.Millisecond))
		}
	}

	// Traced runs alternate untraced and traced passes, so the tracing
	// overhead is measured under the same conditions as the spans.
	var untraced, tracedPasses []*passResult
	var passWalls []float64
	start := time.Now()
	for i := 0; ; i++ {
		t := traced && i%2 == 1
		var m0, m1 runtime.MemStats
		if t {
			runtime.ReadMemStats(&m0)
		}
		p, err := r.pass(t)
		if err != nil {
			return nil, nil, err
		}
		if t {
			runtime.ReadMemStats(&m1)
			p.layer.allocBytes = m1.TotalAlloc - m0.TotalAlloc
			tracedPasses = append(tracedPasses, p)
		} else {
			untraced = append(untraced, p)
		}
		passWalls = append(passWalls, p.wall.Seconds())
		need := 1
		if traced {
			need = 2
		}
		// Start another pass only if it should end within the time.
		if i+1 >= need && time.Since(start).Seconds()+median(passWalls) > seconds {
			break
		}
	}
	return summarize(name, seed, traced, r, setups, coldThermal, untraced, tracedPasses)
}

func summarize(name string, seed int64, traced bool, r runner, setups, coldThermal []float64, untraced, tracedPasses []*passResult) (*report, *result, error) {
	rep := &report{
		Workload: name, Seed: seed, UntracedPasses: walls(untraced),
		TracedPasses: walls(tracedPasses), CountsRepeat: true, Named: map[string]metric{},
	}
	res := &result{Metrics: map[string]metric{}}
	all := append(append([]*passResult(nil), untraced...), tracedPasses...)

	// Every pass must produce identical outputs, traced or not: a timing
	// hook that changes the physics is a bug.
	first := map[string]string{}
	for _, p := range all {
		res.Attempted += p.attempted
		rep.Failures = append(rep.Failures, p.failures...)
		for k, v := range p.outputs {
			if f, ok := first[k]; !ok {
				first[k] = v
			} else if f != v {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: output differs between passes", k))
			}
		}
	}
	res.Failed = len(rep.Failures)
	for _, p := range tracedPasses {
		if p.layer.counts() != tracedPasses[0].layer.counts() {
			rep.CountsRepeat = false
		}
	}
	res.Correct = res.Failed == 0 && rep.CountsRepeat
	if res.Attempted == 0 {
		return nil, nil, errors.New("no operation attempted")
	}
	failFrac := float64(res.Failed) / float64(res.Attempted)

	var ops []float64
	for _, p := range untraced {
		ops = append(ops, millis(p.ops)...)
	}
	rep.OpSamples = len(ops)
	rep.TailPercentile = tailPercentile(len(ops))
	runS := median(rep.UntracedPasses)
	e2e := map[string]metric{
		"run_s":       {runS, "s"},
		"op_ms_p50":   {hdQuantile(ops, 50), "ms"},
		"op_ms_tail":  {hdQuantile(ops, rep.TailPercentile), "ms"},
		"ops_per_s":   {float64(len(ops)) / sum(rep.UntracedPasses), "1/s"},
		"peak_err_c":  {r.peakErrC(), "C"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	rep.Named["fail_frac"] = metric{failFrac, "ratio"}
	for _, k := range []string{"run_s", "peak_err_c", "setup_s", "peak_rss_mb"} {
		rep.Named[k] = e2e[k]
	}
	switch name {
	case "tecfan-walk":
		rep.Named["ctl_ms_p50"] = e2e["op_ms_p50"]
		rep.Named["ctl_ms_tail"] = e2e["op_ms_tail"]
	case "daemon-jobs":
		rep.Named["job_ms_p50"] = e2e["op_ms_p50"]
		rep.Named["job_ms_tail"] = e2e["op_ms_tail"]
		rep.Named["jobs_per_s"] = e2e["ops_per_s"]
	}
	if !traced {
		res.Metrics = e2e
		return rep, res, nil
	}
	res.Metrics = layerMetrics(tracedPasses, runS, coldThermal)
	return rep, res, nil
}

// layerMetrics turns the traced passes into the per-layer metrics. Times are
// medians over traced passes (or over pooled samples), counts come from the
// first traced pass, which summarize has checked the others repeat.
func layerMetrics(ps []*passResult, untracedRunS float64, coldThermal []float64) map[string]metric {
	perPass := func(f func(*layerSample) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(&p.layer)
		}
		return median(xs)
	}
	pooled := func(f func(*layerSample) []time.Duration) []float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, millis(f(&p.layer))...)
		}
		return xs
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var thermal, ctl time.Duration
	var steps, evals int64
	for _, p := range ps {
		thermal += p.layer.thermalBusy
		ctl += p.layer.ctlBusy
		steps += p.layer.steps
		evals += p.layer.evals
	}
	c := ps[0].layer
	runS := median(walls(ps))
	return map[string]metric{
		"trace.run_s":               {runS, "s"},
		"trace.overhead_frac":       {runS/untracedRunS - 1, "ratio"},
		"alloc_mb":                  {perPass(func(l *layerSample) float64 { return float64(l.allocBytes) / (1 << 20) }), "MB"},
		"thermal.step_s":            {perPass(func(l *layerSample) float64 { return l.thermalBusy.Seconds() }), "s"},
		"thermal.step_us":           {ratio(float64(thermal)/float64(time.Microsecond), float64(steps)), "us"},
		"thermal.setup_ms":          {median(coldThermal), "ms"},
		"ctl.busy_s":                {perPass(func(l *layerSample) float64 { return l.ctlBusy.Seconds() }), "s"},
		"ctl.calls":                 {float64(c.ctlCalls), "count"},
		"core.evals":                {float64(c.evals), "count"},
		"core.evals_per_period_max": {float64(c.maxEvals), "count"},
		"core.us_per_eval":          {ratio(float64(ctl)/float64(time.Microsecond), float64(evals)), "us"},
		"sim.steps":                 {float64(c.steps), "count"},
		"sim.self_s": {perPass(func(l *layerSample) float64 {
			return selfTime(l.runWall, l.thermalBusy, l.ctlBusy).Seconds()
		}), "s"},
		"exp.runs":                {float64(c.runs), "count"},
		"checkpoint.writes":       {float64(c.ckptWrites), "count"},
		"checkpoint.bytes":        {float64(c.ckptBytes), "B"},
		"checkpoint.fsync_ms_p50": {median(pooled(func(l *layerSample) []time.Duration { return l.fsyncs })), "ms"},
		"checkpoint.busy_s":       {perPass(func(l *layerSample) float64 { return l.fsBusy.Seconds() }), "s"},
		"http.submit_ms_p50":      {median(pooled(func(l *layerSample) []time.Duration { return l.submits })), "ms"},
		"http.result_ms_p50":      {median(pooled(func(l *layerSample) []time.Duration { return l.results })), "ms"},
		"daemon.exec_ms":          {median(pooled(func(l *layerSample) []time.Duration { return l.execs })), "ms"},
	}
}

// walls lists the passes' wall times, s.
func walls(ps []*passResult) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.wall.Seconds()
	}
	return xs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// peakRSSMB is the process's peak resident set size so far, MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
}
