// Package benchgate implements the performance regression gate behind
// `tecfan-bench -gobench -gate` and scripts/bench_gate.sh: it parses
// `go test -bench` output, reduces repeated runs to per-metric medians,
// and compares the result against a committed baseline (BENCH_12.json).
//
// The comparison policy encodes what each metric means for this repo:
//
//   - a measurement taken at a different GOMAXPROCS than the baseline is
//     refused outright. Allocation counts of anything that fans out over
//     goroutines scale with GOMAXPROCS, and so does wall time, so such a
//     comparison can only report false regressions or hide real ones.
//   - allocs/op regressions always fail. The hot-path allocation
//     discipline (DESIGN.md §18) holds steady-state allocation counts at
//     exact integers — usually zero — so any increase is a real code
//     change, never measurement noise, regardless of what machine the
//     gate runs on.
//   - ns/op regressions beyond the tolerance fail only when the current
//     CPU fingerprint matches the baseline's. Wall-time comparisons
//     across different machines are meaningless; across identical ones
//     the tolerance band absorbs scheduler jitter.
//   - a benchmark present in the baseline but missing from the current
//     run fails: silently dropping a benchmark is how a gate goes blind.
package benchgate

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Schema is the BENCH_*.json format version. Version 2 added gomaxprocs;
// version-1 files never recorded it and cannot be gated against.
const Schema = 2

// Metrics holds one benchmark's measured values.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the persisted form of one gate measurement (BENCH_12.json).
type Baseline struct {
	Schema     int                `json:"schema"`
	CPU        string             `json:"cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"` // the go test -cpu value every benchmark ran at
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// ErrEnvMismatch is returned by Compare for measurements taken at a
// different GOMAXPROCS than the baseline.
var ErrEnvMismatch = errors.New("benchgate: baseline and measurement ran at different GOMAXPROCS")

// CPUFingerprint identifies the machine class a measurement was taken on,
// from the same source `go test -bench` prints in its cpu: banner.
func CPUFingerprint() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				model = strings.TrimSpace(val)
				break
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH + " " + model
}

// ParseGoBench extracts per-benchmark metrics from one `go test -bench
// -benchmem` output stream. Benchmark names are normalized by stripping
// the -GOMAXPROCS suffix; non-benchmark lines (pkg banners, PASS, metric
// extensions like MACs/eval) are skipped.
func ParseGoBench(r io.Reader) (map[string]Metrics, error) {
	out := map[string]Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m Metrics
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
				seen = true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if seen {
			out[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchgate: reading bench output: %w", err)
	}
	return out, nil
}

// Median reduces repeated runs to a per-benchmark, per-metric median —
// the standard defense against a single noisy run. A benchmark missing
// from some runs is reduced over the runs that have it.
func Median(runs []map[string]Metrics) map[string]Metrics {
	byName := map[string][]Metrics{}
	for _, run := range runs {
		for name, m := range run {
			byName[name] = append(byName[name], m)
		}
	}
	out := make(map[string]Metrics, len(byName))
	for name, ms := range byName {
		out[name] = Metrics{
			NsPerOp:     medianOf(ms, func(m Metrics) float64 { return m.NsPerOp }),
			BytesPerOp:  medianOf(ms, func(m Metrics) float64 { return m.BytesPerOp }),
			AllocsPerOp: medianOf(ms, func(m Metrics) float64 { return m.AllocsPerOp }),
		}
	}
	return out
}

func medianOf(ms []Metrics, get func(Metrics) float64) float64 {
	vals := make([]float64, len(ms))
	for i, m := range ms {
		vals[i] = get(m)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// Regression is one gate failure.
type Regression struct {
	Benchmark string
	Metric    string // "ns/op", "allocs/op", or "missing"
	Base, Cur float64
	Detail    string
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline but not measured (%s)", r.Benchmark, r.Detail)
	}
	return fmt.Sprintf("%s: %s %.6g -> %.6g (%s)", r.Benchmark, r.Metric, r.Base, r.Cur, r.Detail)
}

// Compare gates cur against base with the given ns/op tolerance fraction
// (0.15 = +15%). See the package comment for the policy. Benchmarks new in
// cur pass silently — they gate once they enter the baseline. It refuses
// (ErrEnvMismatch) to compare measurements taken at different GOMAXPROCS.
func Compare(base, cur *Baseline, nsTol float64) ([]Regression, error) {
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		return nil, fmt.Errorf("%w: baseline %d, measured %d (re-run at -cpu %d or re-record the baseline)",
			ErrEnvMismatch, base.GOMAXPROCS, cur.GOMAXPROCS, base.GOMAXPROCS)
	}
	var regs []Regression
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	sameCPU := base.CPU == cur.CPU
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			regs = append(regs, Regression{Benchmark: name, Metric: "missing",
				Detail: "a deleted or renamed benchmark must be removed from the baseline explicitly"})
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			regs = append(regs, Regression{Benchmark: name, Metric: "allocs/op",
				Base: b.AllocsPerOp, Cur: c.AllocsPerOp,
				Detail: "allocation regressions gate on every machine"})
		}
		if sameCPU && b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+nsTol) {
			regs = append(regs, Regression{Benchmark: name, Metric: "ns/op",
				Base: b.NsPerOp, Cur: c.NsPerOp,
				Detail: fmt.Sprintf("+%.1f%% exceeds the %.0f%% band on a matching CPU",
					100*(c.NsPerOp/b.NsPerOp-1), 100*nsTol)})
		}
	}
	return regs, nil
}

// Load reads a baseline file and validates its schema.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	if b.Schema != Schema {
		return nil, fmt.Errorf("benchgate: %s: schema %d, want %d", path, b.Schema, Schema)
	}
	if b.GOMAXPROCS < 1 {
		return nil, fmt.Errorf("benchgate: %s: gomaxprocs %d, want >= 1", path, b.GOMAXPROCS)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchgate: %s: no benchmarks", path)
	}
	return &b, nil
}

// Save writes a baseline as deterministic, diff-friendly JSON.
func (b *Baseline) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
