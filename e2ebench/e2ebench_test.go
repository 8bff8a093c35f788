package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"tecfan/internal/exp"
	"tecfan/internal/sim"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least minBeyond samples lie beyond the tail
		// whenever a tail above the median was chosen.
		if p := tailPercentile(c.n); p > 50 && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Error("median sorted its input")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(10*time.Second, 6*time.Second, 3*time.Second); got != time.Second {
		t.Errorf("selfTime = %v, want 1s", got)
	}
	if got := selfTime(time.Second); got != time.Second {
		t.Errorf("selfTime without children = %v, want 1s", got)
	}
}

func TestWrapControllerKeepsInterfaces(t *testing.T) {
	for name, ctl := range exp.NewEnv().Controllers() {
		w := wrapController(ctl, &ctlSpan{})
		for _, c := range []struct {
			iface   string
			in, out bool
		}{
			{"FanController", is[sim.FanController](ctl), is[sim.FanController](w)},
			{"StateCodec", is[sim.StateCodec](ctl), is[sim.StateCodec](w)},
			{"NumericEscalator", is[sim.NumericEscalator](ctl), is[sim.NumericEscalator](w)},
		} {
			if c.in != c.out {
				t.Errorf("%s: wrapped implements %s = %v, controller = %v", name, c.iface, c.out, c.in)
			}
		}
		if w.Name() != ctl.Name() {
			t.Errorf("%s: wrapped name %q", name, w.Name())
		}
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

func TestReferenceTolerance(t *testing.T) {
	ref := &reference{entries: map[string]refEntry{
		"w/c": {Stats: map[string]float64{"x": 91.25}, Digest: "d"},
	}}
	if err := ref.check("w/c", map[string]float64{"x": 91.25 * (1 + 1e-9)}, "d"); err != nil {
		t.Errorf("solver-sized rounding refused: %v", err)
	}
	if err := ref.check("w/c", map[string]float64{"x": 91.25 * (1 + 1e-5)}, "d"); err == nil {
		t.Error("model-sized change accepted")
	}
	if err := ref.check("w/c", map[string]float64{"y": 1}, "d"); err == nil {
		t.Error("statistic without a reference accepted")
	}
	if err := ref.check("w/other", nil, ""); err == nil {
		t.Error("case without a reference accepted")
	}
	a := map[string]any{"t": []any{91.2345671, 1.0}}
	b := map[string]any{"t": []any{91.2345671 * (1 + 1e-12), 1.0}}
	if digest(a, digestDigits) != digest(b, digestDigits) {
		t.Error("rounded digest moved under solver-sized rounding")
	}
	if digest(a, -1) == digest(b, -1) {
		t.Error("exact digest missed a change")
	}
}

// TestCountsRepeat runs one untraced and one traced pass of each workload
// twice from scratch with the same seed: outputs must match across all four
// passes, the exact layer counts across the two traced ones, and a traced
// run's wall time must split into thermal, controller and self time.
func TestCountsRepeat(t *testing.T) {
	chdirTemp(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "tecfan-walk" {
				t.Skip("tecfan-walk passes take tens of seconds")
			}
			ref, err := loadReference(false)
			if err != nil {
				t.Fatal(err)
			}
			var traced []*passResult
			var outputs []map[string]string
			for i := 0; i < 2; i++ {
				r, err := w.setup(7, ref)
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range []bool{false, true} {
					p, err := r.pass(tr)
					if err != nil {
						t.Fatal(err)
					}
					if len(p.failures) > 0 {
						t.Fatalf("traced=%v: %v", tr, p.failures)
					}
					outputs = append(outputs, p.outputs)
					if tr {
						traced = append(traced, p)
					}
				}
				if err := r.close(); err != nil {
					t.Fatal(err)
				}
			}
			for i, o := range outputs[1:] {
				if !equalMaps(o, outputs[0]) {
					t.Errorf("pass %d outputs differ from pass 0", i+1)
				}
			}
			a, b := traced[0].layer, traced[1].layer
			if a.counts() != b.counts() {
				t.Errorf("counts differ: %v vs %v", a.counts(), b.counts())
			}
			if a.runs > 0 {
				if a.steps == 0 || a.ctlCalls == 0 {
					t.Errorf("traced simulation pass counted %d steps, %d controller calls", a.steps, a.ctlCalls)
				}
				if self := selfTime(a.runWall, a.thermalBusy, a.ctlBusy); self <= 0 || self >= a.runWall {
					t.Errorf("self time %v outside (0, %v)", self, a.runWall)
				}
			} else if a.ckptWrites == 0 || a.ckptBytes == 0 || len(a.fsyncs) == 0 || len(a.submits) == 0 {
				t.Errorf("traced daemon pass saw no storage or HTTP work: %+v", a.counts())
			}
		})
	}
}

// TestOutputContract checks the last line of output against BENCHMARK.json:
// exactly the four top-level keys, and every declared metric of the run's
// kind with its declared unit.
func TestOutputContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl map[string]json.RawMessage
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	chdirTemp(t)
	for trace, list := range []string{"end_to_end", "per_layer"} {
		var want []struct{ Name, Unit string }
		if err := json.Unmarshal(decl[list], &want); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "daemon-jobs", "--seconds", "1", "--trace", []string{"0", "1"}[trace]}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(last))
		for k := range last {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Fatalf("top-level keys %v", keys)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", list, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", list, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", list, m.Name, got, m.Unit)
			}
		}
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// chdirTemp runs the test in a scratch directory, where the daemon's state
// directories go.
func chdirTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

func TestHDQuantile(t *testing.T) {
	if got := hdQuantile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	// A symmetric sample's Harrell–Davis median is its centre.
	sym := []float64{1, 2, 3, 10, 17, 18, 19}
	if got := hdQuantile(sym, 50); math.Abs(got-10) > 1e-9 {
		t.Errorf("symmetric median = %v, want 10", got)
	}
	// On a large uniform sample it agrees with the nearest-rank order
	// statistic, and it leaves its input unsorted.
	u := make([]float64, 1000)
	for i := range u {
		u[i] = float64(999 - i)
	}
	for _, p := range []float64{50, 90, 95, 99} {
		if got, want := hdQuantile(u, p), float64(rank(p, len(u))-1); math.Abs(got-want) > 2 {
			t.Errorf("uniform p%v = %v, order statistic %v", p, got, want)
		}
	}
	if u[0] != 999 {
		t.Error("hdQuantile sorted its input")
	}
	// Across a gap it moves smoothly: 94 small and 6 large samples, p95
	// lies between the clusters instead of on either.
	gap := make([]float64, 100)
	for i := range gap {
		gap[i] = 10
		if i >= 94 {
			gap[i] = 1000
		}
	}
	if got := hdQuantile(gap, 95); got <= 10 || got >= 1000 {
		t.Errorf("gap p95 = %v, want strictly between the clusters", got)
	}
	// The Beta weights sum to one.
	if got := regIncBeta(3.5, 2.5, 1) - regIncBeta(3.5, 2.5, 0); got != 1 {
		t.Errorf("weights sum to %v", got)
	}
	if got := regIncBeta(2, 3, 0.4); math.Abs(got-0.5248) > 1e-4 {
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
}
