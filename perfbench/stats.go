package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailPermille are the percentiles a tail may be reported at, in tenths
// of a percent, highest first. tailPercentile picks the highest one that
// still has at least minBeyond samples above it.
var tailPermille = []int{999, 990, 980, 950, 900, 750, 500}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailPermille with at
// least minBeyond of n samples beyond it, and false when even the
// median has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sample is a set of measurements of one quantity.
type sample struct{ xs []float64 }

func (s *sample) add(x float64)          { s.xs = append(s.xs, x) }
func (s *sample) addDur(d time.Duration) { s.add(d.Seconds()) }
func (s *sample) n() int                 { return len(s.xs) }
func (s *sample) sorted() []float64      { c := append([]float64(nil), s.xs...); sort.Float64s(c); return c }
func (s *sample) q(q float64) float64    { return quantile(s.sorted(), q) }
func (s *sample) median() float64        { return s.q(0.5) }
func (s *sample) min() float64           { return s.q(0) }
func (s *sample) max() float64           { return s.q(1) }

func (s *sample) mean() float64 {
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// tail reports the highest percentile with enough samples beyond it,
// its value and the sample count. ok is false when there are too few
// samples for any percentile of tailPercentiles.
func (s *sample) tail() (pct, value float64, ok bool) {
	pct, ok = tailPercentile(s.n())
	if !ok {
		return 0, math.NaN(), false
	}
	return pct, s.q(pct / 100), true
}

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkName rejects a metric name the record format cannot carry.
func checkName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	return nil
}
