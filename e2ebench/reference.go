package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// relTol is the relative tolerance on a simulated statistic. A solver that
// rounds differently moves results by ~1e-12; a model change moves them by
// far more than 1e-6.
const relTol = 1e-6

// digestDigits is the precision, in significant digits, at which a job
// result is digested for the reference, for the same reason.
const digestDigits = 6

//go:embed reference.json
var referenceJSON []byte

// refEntry is the recorded outcome of one case.
type refEntry struct {
	Stats  map[string]float64 `json:"stats"`
	Digest string             `json:"digest,omitempty"`
}

// reference maps "<workload>/<case>" to the case's recorded outcome. In
// record mode check stores what it is given instead of comparing.
type reference struct {
	entries map[string]refEntry
	record  bool
}

func loadReference(record bool) (*reference, error) {
	r := &reference{entries: map[string]refEntry{}, record: record}
	if err := json.Unmarshal(referenceJSON, &r.entries); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1e-9)
}

// check compares a case's statistics, and its digest when given, against
// the reference. Every statistic given must be recorded.
func (r *reference) check(key string, stats map[string]float64, digest string) error {
	if r.record {
		e := r.entries[key]
		if e.Stats == nil {
			e.Stats = map[string]float64{}
		}
		for k, v := range stats {
			e.Stats[k] = v
		}
		if digest != "" {
			e.Digest = digest
		}
		r.entries[key] = e
		return nil
	}
	want, ok := r.entries[key]
	if !ok {
		return fmt.Errorf("%s: no reference entry", key)
	}
	names := make([]string, 0, len(stats))
	for k := range stats {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		w, ok := want.Stats[k]
		if !ok {
			return fmt.Errorf("%s: no reference value for %s", key, k)
		}
		if !closeTo(stats[k], w) {
			return fmt.Errorf("%s: %s = %.10g, reference %.10g", key, k, stats[k], w)
		}
	}
	if digest != want.Digest {
		return fmt.Errorf("%s: result digest %s, reference %s", key, digest, want.Digest)
	}
	return nil
}

// write saves the reference as indented JSON with sorted keys.
func (r *reference) write(path string) error {
	data, err := json.MarshalIndent(r.entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// exactKey renders values so that two keys are equal iff the values are
// bit-identical; it backs the pass-to-pass and traced-vs-untraced checks.
func exactKey(vals ...float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// digest hashes a decoded JSON value with its numbers at digits significant
// digits (digits < 0 keeps every digit) and object keys sorted.
func digest(v any, digits int) string {
	var b strings.Builder
	canon(&b, v, digits)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:12])
}

func canon(b *strings.Builder, v any, digits int) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for _, k := range keys {
			b.WriteString(strconv.Quote(k))
			b.WriteByte(':')
			canon(b, x[k], digits)
			b.WriteByte(',')
		}
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for _, e := range x {
			canon(b, e, digits)
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case float64:
		b.WriteString(strconv.FormatFloat(x, 'g', digits, 64))
	default:
		fmt.Fprintf(b, "%#v", x)
	}
}
