package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples. The epsilon keeps p·n/100 from rounding up past an exact rank
// (99.9 % of 10000 is 9990, not 9991).
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile is the highest ladder percentile with at least minBeyond of
// n samples beyond it. With fewer than 2·minBeyond samples no percentile
// qualifies and the median stands in for the tail.
func tailPercentile(n int) float64 {
	tail := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			tail = p
		}
	}
	return tail
}

// hdQuantile is the Harrell–Davis estimate of percentile p of xs: the
// average of all order statistics weighted by a Beta((n+1)q, (n+1)(1−q))
// density, q = p/100. Where the samples form clusters with a gap between
// them (per-row run times, walk lengths), a single order statistic jumps
// across the gap as noise reorders a few samples; this estimate moves
// smoothly. xs is not modified; an empty sample (a run whose every
// operation failed) yields 0.
func hdQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := p / 100
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		c := regIncBeta(a, b, float64(i)/float64(n))
		est += (c - prev) * s[i-1]
		prev = c
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 1000; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

// median is the middle value of xs (the mean of the two middle values for an
// even count), 0 when xs is empty (a layer the workload does not use).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// selfTime is a span's duration minus the time its child spans cover. The
// children of a simulation run (the thermal steps and the controller calls)
// never overlap each other, so their durations simply add.
func selfTime(span time.Duration, children ...time.Duration) time.Duration {
	for _, c := range children {
		span -= c
	}
	return span
}
