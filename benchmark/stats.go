//go:build linux

package main

import (
	"math"
	"sort"
	"time"
)

// value is one measured metric: the number and how many samples (or
// events) it was computed from.
type value struct {
	V float64
	N int
}

// values maps metric name to its measurement for one run.
type values map[string]value

func (v values) set(name string, x float64, n int) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return // an undefined ratio is omitted, never printed as 0
	}
	v[name] = value{V: x, N: n}
}

func (v values) merge(o values) {
	for k, x := range o {
		v[k] = x
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is NaN when xs is empty.
func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// sample is one timed operation: when it ended (offset from the run's
// clock origin) and how long it took.
type sample struct {
	end time.Duration
	dur time.Duration
}

// series collects the samples of one goroutine; it is not shared, so it
// needs no lock. The owner appends, the coordinator reads after Wait.
type series struct {
	s []sample
}

func (s *series) add(origin, start time.Time, end time.Time) {
	s.s = append(s.s, sample{end: end.Sub(origin), dur: end.Sub(start)})
}

// window returns the durations (in the given unit) of the samples that
// ended inside [from, to): the warm-up before from is discarded.
func window(unit time.Duration, from, to time.Duration, all ...*series) []float64 {
	var out []float64
	for _, s := range all {
		for _, x := range s.s {
			if x.end >= from && x.end < to {
				out = append(out, float64(x.dur)/float64(unit))
			}
		}
	}
	return out
}

// relSpread is the inter-quartile distance of xs as a share of their
// median — the spread the driver computes.
func relSpread(xs []float64) (q1, med, q3, spread float64) {
	c := append([]float64(nil), xs...)
	q1, med, q3 = quantileExclusive(c, 0.25), quantileExclusive(c, 0.5), quantileExclusive(c, 0.75)
	if med != 0 {
		spread = (q3 - q1) / math.Abs(med)
	}
	return
}

// quantileExclusive mirrors Python's statistics.quantiles default
// ("exclusive") method so -repeat prints the number the driver will see.
func quantileExclusive(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return xs[0]
	}
	sort.Float64s(xs)
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := pos - float64(j)
	return xs[j-1] + (xs[j]-xs[j-1])*delta
}
