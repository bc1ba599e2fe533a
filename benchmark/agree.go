package main

import (
	"fmt"
	"slices"
)

// agreeRuns is how many untraced runs of every workload make one set
// of -agree. A set's value of a metric is the median of its runs: the
// host has slow spells that outlast a run, and a reviewer who compares
// two commits compares medians of several runs, never two single runs.
const agreeRuns = 3

// runAgree measures n sets with the same binary and checks that they
// agree: every end-to-end metric of every workload must repeat from set
// to set within its own bound, and every exact count must repeat
// exactly. A benchmark whose own sets disagree by more than a bound
// cannot tell a regression of that size from noise. A set is agreeRuns
// untraced passes over the workloads and one traced pass; passes, not
// workloads, repeat, so that a slow spell of the host falls on different
// workloads of different sets.
func runAgree(o options, scale, n int) error {
	if n < 2 {
		return fmt.Errorf("-agree needs at least 2 sets, got %d", n)
	}
	untraced := make([][]*set, n) // by set, then by pass
	traced := make([]*set, n)
	for i := 0; i < n; i++ {
		for pass := 0; pass <= agreeRuns; pass++ {
			o.traced = pass == agreeRuns
			s, err := runSet(o, scale)
			if err != nil {
				return fmt.Errorf("set %d: %w", i+1, err)
			}
			if o.traced {
				traced[i] = s
			} else {
				untraced[i] = append(untraced[i], s)
			}
		}
	}
	ok := true
	fmt.Printf("\n%-16s %-18s %-36s %8s %6s   runs\n", "workload", "metric", "medians of the sets", "spread", "bound")
	for wi, w := range workloads {
		for _, d := range endToEnd {
			var medians []float64
			var runs [][]float64
			for _, passes := range untraced {
				var vals []float64
				for _, s := range passes {
					vals = append(vals, s.Workloads[wi].Metrics[d.Name].Value)
				}
				medians = append(medians, median(vals))
				runs = append(runs, vals)
			}
			spread := (slices.Max(medians) - slices.Min(medians)) / median(medians)
			verdict := ""
			if spread > d.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-16s %-18s %-36s %7.1f%% %5.0f%%   %.5g%s\n", w.Name, d.Name, fmt.Sprintf("%.5g", medians), spread*100, d.Bound*100, runs, verdict)
		}
		for _, name := range exactCounts {
			var vals []float64
			for _, s := range traced {
				vals = append(vals, s.Workloads[wi].Metrics[name].Value)
			}
			verdict := ""
			if slices.Max(vals) != slices.Min(vals) {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-16s %-34s %-20s %8s%s\n", w.Name, name, fmt.Sprintf("%.12g", vals), "exact", verdict)
		}
	}
	if !ok {
		return fmt.Errorf("the sets disagree: see DISAGREE above")
	}
	fmt.Println("the sets agree")
	return nil
}
