package core

// Slice segmentation helpers shared by MLlib aggregators and the
// benchmarks: the paper's splitA / concatA of Figure 7.

// SplitSlice returns segment i of n of a: the contiguous range
// [i*len/n, (i+1)*len/n). Segments cover the slice exactly and differ
// in length by at most one. The returned slice aliases a, which is what
// a splitOp wants: reduce-scatter then reduces in place in the resident
// aggregator, and nothing reads that aggregator afterwards (a failed
// ring is recovered by recomputing it, see Aggregate). Callers that
// need a to survive a mutation of the segments use SplitSliceCopy.
func SplitSlice[E any](a []E, i, n int) []E {
	if n <= 0 || i < 0 || i >= n {
		panic("core: SplitSlice index out of range")
	}
	lo := i * len(a) / n
	hi := (i + 1) * len(a) / n
	return a[lo:hi]
}

// SplitSliceCopy is SplitSlice with an owned copy, safe to mutate.
func SplitSliceCopy[E any](a []E, i, n int) []E {
	s := SplitSlice(a, i, n)
	out := make([]E, len(s))
	copy(out, s)
	return out
}

// ConcatSlices concatenates segments in order — the paper's concatA.
func ConcatSlices[E any](segs [][]E) []E {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	out := make([]E, 0, total)
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

// AddF64 merges b into a elementwise and returns a — the element-wise
// sum used by every aggregator in the paper's workloads. b's element is
// the sum's first operand, so where both are NaN the sum keeps b's, as
// every other []float64 adder does (TestNaNPayloadOfEveryAdder).
func AddF64(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("core: AddF64 length mismatch")
	}
	for i := range a {
		a[i] = b[i] + a[i]
	}
	return a
}
