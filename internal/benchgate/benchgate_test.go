package benchgate

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: tecfan
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSteadySolve       	     100	    212484 ns/op	   29904 B/op	       0 allocs/op
BenchmarkTransientStep-8   	     100	    159630 ns/op	       0 B/op	       0 allocs/op
BenchmarkSystolic-8        	     100	        52.91 ns/op	        36.00 MACs/eval	       0 B/op	       0 allocs/op
PASS
ok  	tecfan	0.117s
`

func TestParseGoBench(t *testing.T) {
	got, err := ParseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	ts, ok := got["BenchmarkTransientStep"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if ts.NsPerOp != 159630 || ts.AllocsPerOp != 0 {
		t.Fatalf("TransientStep = %+v", ts)
	}
	// The custom MACs/eval metric must not displace the real ones.
	if sys := got["BenchmarkSystolic"]; sys.NsPerOp != 52.91 || sys.BytesPerOp != 0 {
		t.Fatalf("Systolic = %+v", sys)
	}
}

func TestMedianOddEven(t *testing.T) {
	runs := []map[string]Metrics{
		{"A": {NsPerOp: 100, AllocsPerOp: 1}},
		{"A": {NsPerOp: 300, AllocsPerOp: 1}},
		{"A": {NsPerOp: 200, AllocsPerOp: 1}, "B": {NsPerOp: 10}},
	}
	m := Median(runs)
	if m["A"].NsPerOp != 200 {
		t.Fatalf("odd median = %v, want 200", m["A"].NsPerOp)
	}
	// B appears in one run only: reduced over what exists.
	if m["B"].NsPerOp != 10 {
		t.Fatalf("sparse median = %v, want 10", m["B"].NsPerOp)
	}
	even := Median(runs[:2])
	if even["A"].NsPerOp != 200 {
		t.Fatalf("even median = %v, want 200", even["A"].NsPerOp)
	}
}

func TestCompareAllocsGateEverywhere(t *testing.T) {
	base := &Baseline{Schema: Schema, GOMAXPROCS: 1, CPU: "cpuA",
		Benchmarks: map[string]Metrics{"BenchmarkX": {NsPerOp: 100, AllocsPerOp: 0}}}
	cur := &Baseline{Schema: Schema, GOMAXPROCS: 1, CPU: "cpuB", // different machine
		Benchmarks: map[string]Metrics{"BenchmarkX": {NsPerOp: 500, AllocsPerOp: 2}}}
	regs := mustCompare(t, base, cur)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("want exactly the allocs regression on a foreign CPU, got %v", regs)
	}
}

func TestCompareNsGatesOnlyOnMatchingCPU(t *testing.T) {
	base := &Baseline{Schema: Schema, GOMAXPROCS: 1, CPU: "cpuA",
		Benchmarks: map[string]Metrics{"BenchmarkX": {NsPerOp: 100}}}
	within := &Baseline{Schema: Schema, GOMAXPROCS: 1, CPU: "cpuA",
		Benchmarks: map[string]Metrics{"BenchmarkX": {NsPerOp: 114}}}
	if regs := mustCompare(t, base, within); len(regs) != 0 {
		t.Fatalf("+14%% inside the band flagged: %v", regs)
	}
	beyond := &Baseline{Schema: Schema, GOMAXPROCS: 1, CPU: "cpuA",
		Benchmarks: map[string]Metrics{"BenchmarkX": {NsPerOp: 120}}}
	regs := mustCompare(t, base, beyond)
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("+20%% on a matching CPU not flagged: %v", regs)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := &Baseline{Schema: Schema, GOMAXPROCS: 1, CPU: "c",
		Benchmarks: map[string]Metrics{"BenchmarkGone": {NsPerOp: 1}}}
	cur := &Baseline{Schema: Schema, GOMAXPROCS: 1, CPU: "c", Benchmarks: map[string]Metrics{}}
	regs := mustCompare(t, base, cur)
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("dropped benchmark not flagged: %v", regs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := &Baseline{Schema: Schema, GOMAXPROCS: 1, CPU: "c",
		Benchmarks: map[string]Metrics{"BenchmarkX": {NsPerOp: 1.5, BytesPerOp: 16, AllocsPerOp: 1}}}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/b.json"
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CPU != b.CPU || got.Benchmarks["BenchmarkX"] != b.Benchmarks["BenchmarkX"] {
		t.Fatalf("round trip: %+v", got)
	}
	// Wrong schema refuses.
	if err := writeFile(path, []byte(`{"schema":99,"cpu":"c","gomaxprocs":1,"benchmarks":{"B":{}}}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("schema 99 accepted")
	}
	// A baseline that never recorded its GOMAXPROCS cannot be gated against.
	if err := writeFile(path, []byte(`{"schema":2,"cpu":"c","benchmarks":{"B":{}}}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("baseline without gomaxprocs accepted")
	}
}

func mustCompare(t *testing.T, base, cur *Baseline) []Regression {
	t.Helper()
	regs, err := Compare(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return regs
}

// A measurement at another GOMAXPROCS is refused, not compared: allocation
// counts of goroutine fan-out scale with it, so the comparison would report
// false regressions (or hide real ones).
func TestCompareRefusesGOMAXPROCSMismatch(t *testing.T) {
	base := &Baseline{Schema: Schema, GOMAXPROCS: 1, CPU: "c",
		Benchmarks: map[string]Metrics{"BenchmarkX": {NsPerOp: 100, AllocsPerOp: 77}}}
	cur := &Baseline{Schema: Schema, GOMAXPROCS: 2, CPU: "c",
		Benchmarks: map[string]Metrics{"BenchmarkX": {NsPerOp: 100, AllocsPerOp: 125}}}
	regs, err := Compare(base, cur, 0.15)
	if !errors.Is(err, ErrEnvMismatch) || regs != nil {
		t.Fatalf("GOMAXPROCS 1 vs 2: regs %v, err %v; want ErrEnvMismatch and no comparison", regs, err)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
