package main

// Postmortem rendering: sparker-analyze -postmortem <bundle.json>
// turns a flight-recorder bundle (written by the obsv Observer when an
// anomaly trips) into a readable incident report — what tripped, what
// the cluster looked like in the minutes before, which executors were
// implicated, and the merged driver+executor timeline around the
// trigger. -validate additionally enforces the bundle invariants and
// exits non-zero on a malformed bundle (make obsv-demo gates on this).

import (
	"fmt"
	"os"
	"sort"
	"time"

	"sparker/internal/obsv"
)

// timelineTail bounds how many merged records the report prints.
const timelineTail = 40

func postmortemReport(path string, validate bool) {
	b, err := obsv.Load(path)
	if err != nil {
		fail(err)
	}

	fmt.Printf("postmortem bundle %s (version %d)\n", path, b.Version)
	fmt.Printf("written  %s\n", time.Unix(0, b.WrittenNS).Format(time.RFC3339))
	fmt.Printf("trigger  %s", b.Trigger.Name)
	if b.Trigger.Detail != "" {
		fmt.Printf("  (%s)", b.Trigger.Detail)
	}
	fmt.Printf("  at %s\n", time.Unix(0, b.Trigger.TimeNS).Format(time.RFC3339Nano))
	fmt.Printf("cluster  %q: %d executors × %d cores", b.Cluster.Name, b.Cluster.Executors, b.Cluster.Cores)
	if len(b.Cluster.ExecOfRank) > 0 {
		fmt.Printf(", ring rank→exec %v", b.Cluster.ExecOfRank)
	}
	fmt.Println()
	if b.BaselineP99NS > 0 {
		fmt.Printf("rolling p99 baseline  %v\n", time.Duration(b.BaselineP99NS).Round(time.Microsecond))
	}

	snapshotTable(b)
	counterTable(b)
	executorTable(b)
	timelineTable(b)

	if validate {
		if err := b.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "sparker-analyze: validate:", err)
			os.Exit(1)
		}
		fmt.Println("\nvalidate: OK")
	}
}

// snapshotTable prints the pre-trigger health history, timestamped
// relative to the trigger.
func snapshotTable(b *obsv.Bundle) {
	if len(b.Snapshots) == 0 {
		fmt.Println("\nno metric snapshots in bundle")
		return
	}
	fmt.Printf("\n%-10s %8s %12s %12s %10s %10s %6s\n",
		"when", "steps", "p50", "p99", "heap", "goroutine", "gc")
	for _, s := range b.Snapshots {
		fmt.Printf("%-10s %8d %12v %12v %10s %10d %6d\n",
			relTime(s.TimeNS, b.Trigger.TimeNS),
			s.StepCount,
			time.Duration(s.StepP50NS).Round(time.Microsecond),
			time.Duration(s.StepP99NS).Round(time.Microsecond),
			byteSize(int64(s.HeapAlloc)),
			s.Goroutines, s.NumGC)
	}
}

func counterTable(b *obsv.Bundle) {
	if len(b.Counters) == 0 {
		return
	}
	names := make([]string, 0, len(b.Counters))
	for n := range b.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("\ncumulative event counters:")
	for _, n := range names {
		fmt.Printf("  %-24s %d\n", n, b.Counters[n])
	}
}

// executorTable summarizes each collected ring and flags the executors
// the bundle implicates (error spans or anomaly markers on record).
func executorTable(b *obsv.Bundle) {
	if len(b.Executors) == 0 {
		return
	}
	fmt.Printf("\n%-6s %-12s %8s %8s %8s  %s\n",
		"exec", "source", "records", "dropped", "errors", "note")
	var implicated []int
	for _, e := range b.Executors {
		errs := 0
		for _, r := range e.Ring.Records {
			if (r.Kind == obsv.KindSpan && r.Detail != "") || r.Kind == obsv.KindMarker {
				errs++
			}
		}
		note := ""
		if e.Err != "" {
			note = "collect: " + e.Err
		}
		if errs > 0 {
			implicated = append(implicated, e.Exec)
		}
		fmt.Printf("%-6d %-12s %8d %8d %8d  %s\n",
			e.Exec, e.Source, len(e.Ring.Records), e.Ring.Dropped, errs, note)
	}
	if len(implicated) > 0 {
		fmt.Printf("implicated executors: %v\n", implicated)
	}
}

// timelineTable merges driver and executor records and prints the tail
// leading up to (and just past) the trigger.
func timelineTable(b *obsv.Bundle) {
	all := b.AllRecords()
	if len(all) == 0 {
		return
	}
	if len(all) > timelineTail {
		fmt.Printf("\nmerged timeline (last %d of %d records):\n", timelineTail, len(all))
		all = all[len(all)-timelineTail:]
	} else {
		fmt.Printf("\nmerged timeline (%d records):\n", len(all))
	}
	for _, sr := range all {
		src := "driver"
		if sr.Exec >= 0 {
			src = fmt.Sprintf("exec %d", sr.Exec)
		}
		fmt.Printf("  %-9s %-7s %-8s %s\n",
			relTime(sr.Record.TimeNS, b.Trigger.TimeNS), src,
			sr.Record.Kind, describeRecord(sr.Record))
	}
}

// describeRecord renders one record's scalars per its kind semantics.
func describeRecord(r obsv.Record) string {
	switch r.Kind {
	case obsv.KindStep:
		return fmt.Sprintf("%s  %v  %s  epoch %d  ch %d step %d",
			r.Name, time.Duration(r.A).Round(time.Microsecond), byteSize(r.B),
			r.C, r.D>>32, r.D&0xffffffff)
	case obsv.KindSpan:
		s := fmt.Sprintf("%s  %v  trace %016x span %016x",
			r.Name, time.Duration(r.A).Round(time.Microsecond), uint64(r.B), uint64(r.C))
		if r.D != 0 {
			s += fmt.Sprintf(" parent %016x", uint64(r.D))
		}
		if r.Detail != "" {
			s += "  err=" + r.Detail
		}
		return s
	case obsv.KindSnapshot:
		return fmt.Sprintf("steps %d  p50 %v  p99 %v  heap %s",
			r.A, time.Duration(r.B).Round(time.Microsecond),
			time.Duration(r.C).Round(time.Microsecond), byteSize(r.D))
	case obsv.KindProfile:
		s := fmt.Sprintf("%s  heap %s  alloc %s  goroutines %d",
			r.Name, byteSize(r.A), byteSize(r.B), r.C)
		if r.D != 0 {
			s += fmt.Sprintf("  job %d", r.D)
		}
		return s
	case obsv.KindPhase:
		return fmt.Sprintf("%s  %v  %s", r.Name, time.Duration(r.A).Round(time.Microsecond), r.Detail)
	default: // marker
		s := r.Name
		if r.Detail != "" {
			s += "  " + r.Detail
		}
		return s
	}
}

// relTime renders t relative to the trigger instant: "-1.2s" fired
// before it, "+340ms" after.
func relTime(t, trigger int64) string {
	d := time.Duration(t - trigger)
	sign := "+"
	if d < 0 {
		sign, d = "-", -d
	}
	return sign + d.Round(time.Millisecond).String()
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
