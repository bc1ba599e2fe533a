package data

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadLibSVM: arbitrary text input must parse or error, never
// panic; parsed rows must satisfy the sparse-vector invariants; and
// the packed CSR parse must agree with the point-slice view exactly
// (same accept/reject decision, same labels, indices and values).
func FuzzReadLibSVM(f *testing.F) {
	f.Add("1 1:0.5 3:2\n-1 2:1\n")
	f.Add("+1 1:1\n")
	f.Add("")
	f.Add("# comment only\n")
	f.Add("0 5:nan\n")
	f.Add("1 1:1 1:2\n") // duplicate index
	f.Add("1 2:1 1:2\n") // out-of-order indices
	f.Add("-1\n1\n")     // feature-less rows
	f.Fuzz(func(t *testing.T, input string) {
		pts, err := ReadLibSVM(strings.NewReader(input), 0)
		m, perr := ReadLibSVMPacked(strings.NewReader(input), 3, 0)
		if (err == nil) != (perr == nil) {
			t.Fatalf("packed/slice accept mismatch: %v vs %v", err, perr)
		}
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("packed parse violates CSR invariants: %v", verr)
		}
		if m.Part != 3 || m.Rows() != len(pts) {
			t.Fatalf("packed parse: part %d rows %d, want 3, %d", m.Part, m.Rows(), len(pts))
		}
		for i, p := range pts {
			if p.Features.NNZ() != len(p.Features.Values) {
				t.Fatal("inconsistent sparse vector")
			}
			prev := int32(-1)
			for _, ix := range p.Features.Indices {
				if ix <= prev || int(ix) >= p.Features.Dim {
					t.Fatalf("invariant violated: idx %d after %d (dim %d)", ix, prev, p.Features.Dim)
				}
				prev = ix
			}
			row := m.Row(i)
			if math.Float64bits(m.Label(i)) != math.Float64bits(p.Label) {
				t.Fatalf("row %d: packed label %v != %v", i, m.Label(i), p.Label)
			}
			if len(row.Indices) != len(p.Features.Indices) || row.Dim != p.Features.Dim {
				t.Fatalf("row %d: packed shape mismatch", i)
			}
			for j := range row.Indices {
				if row.Indices[j] != p.Features.Indices[j] ||
					math.Float64bits(row.Values[j]) != math.Float64bits(p.Features.Values[j]) {
					t.Fatalf("row %d entry %d: packed/slice mismatch", i, j)
				}
			}
		}
	})
}

// FuzzReadBagOfWords: same guarantee for the UCI corpus format.
func FuzzReadBagOfWords(f *testing.F) {
	f.Add("2\n5\n3\n1 1 2\n1 3 1\n2 5 4\n")
	f.Add("0\n0\n0\n")
	f.Add("x\n")
	f.Add("1\n1\n0\n1 1 0")         // a zero count (found by make fuzz-smoke)
	f.Add("-1\n1\n0\n")             // a negative document count
	f.Add("99999999999999\n1\n0\n") // a document table nobody could hold
	f.Fuzz(func(t *testing.T, input string) {
		docs, vocab, err := ReadBagOfWords(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, d := range docs {
			if err := d.Validate(vocab); err != nil {
				t.Fatalf("parsed doc violates invariants: %v", err)
			}
		}
	})
}
