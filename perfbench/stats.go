package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a tail percentile before it
// is reported: a p99 needs at least 1000 timed operations.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100).
// A tail percentile (p > 50) is refused unless at least minTail samples lie
// beyond it, since a tail read off fewer points is one or two outliers, not
// a distribution.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the nearest-rank p50, 0 for no samples.
func median(xs []float64) float64 {
	v, err := percentile(xs, 50)
	if err != nil {
		return 0
	}
	return v
}

// metricName is the benchmark's metric-name grammar: a leading letter or
// digit, then letters, digits, '_', '.' and '-', at most 64 in all.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	return nil
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// coverage returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once.
func coverage(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = math.MinInt64
	for _, iv := range clipped {
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}
