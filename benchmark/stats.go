package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-th quantile of xs by linear interpolation
// between order statistics; xs need not be sorted. Zero for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// thirds returns the medians of the first, middle and last third of xs,
// the within-run drift the README reports as an open finding.
func thirds(xs []float64) [3]float64 {
	n := len(xs) / 3
	if n == 0 {
		return [3]float64{}
	}
	return [3]float64{median(xs[:n]), median(xs[n : 2*n]), median(xs[len(xs)-n:])}
}

// driftPct is the last third's median over the first third's, minus
// one, in percent.
func driftPct(xs []float64) float64 {
	t := thirds(xs)
	if t[0] == 0 {
		return 0
	}
	return (t[2]/t[0] - 1) * 100
}
