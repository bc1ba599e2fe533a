package rdd

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestReduceByKeyWordCount(t *testing.T) {
	ctx := testContext(t, 3, 2)
	text := []string{
		"the quick brown fox", "jumps over the lazy dog",
		"the dog barks", "quick quick fox",
	}
	lines := FromSlice(ctx, text, 4)
	words := FlatMap(lines, func(l string) []string { return strings.Fields(l) })
	pairs := KeyBy(words, func(w string) string { return w })
	ones := Map(pairs, func(p Pair[string, string]) Pair[string, int64] {
		return Pair[string, int64]{Key: p.Key, Value: 1}
	})
	counted, err := ReduceByKey(ones, func(a, b int64) int64 { return a + b }, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(counted)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, p := range got {
		if _, dup := counts[p.Key]; dup {
			t.Fatalf("key %q appears in multiple partitions", p.Key)
		}
		counts[p.Key] = p.Value
	}
	want := map[string]int64{
		"the": 3, "quick": 3, "brown": 1, "fox": 2, "jumps": 1,
		"over": 1, "lazy": 1, "dog": 2, "barks": 1,
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
}

func TestReduceByKeyDeterministicOrder(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r := Generate(ctx, 4, func(part int) ([]Pair[int64, int64], error) {
		out := make([]Pair[int64, int64], 30)
		for i := range out {
			out[i] = Pair[int64, int64]{Key: int64((part*31 + i) % 10), Value: 1}
		}
		return out, nil
	})
	red, err := ReduceByKey(r, func(a, b int64) int64 { return a + b }, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Collect(red)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(red)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shuffle output order nondeterministic")
	}
}

func TestCountByKey(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r := FromSlice(ctx, ints(100), 5)
	keyed := KeyBy(r, func(v int64) int64 { return v % 7 })
	counts, err := CountByKey(keyed)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 100 || len(counts) != 7 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[0] != 15 { // 0,7,...,98
		t.Fatalf("counts[0] = %d, want 15", counts[0])
	}
}

func TestReduceByKeyValidation(t *testing.T) {
	ctx := testContext(t, 2, 1)
	r := FromSlice(ctx, []Pair[int64, int64]{{Key: 1, Value: 1}}, 1)
	if _, err := ReduceByKey(r, func(a, b int64) int64 { return a + b }, 0); err == nil {
		t.Fatal("zero partitions should fail")
	}
}

func TestReduceByKeyUnencodableKey(t *testing.T) {
	ctx := testContext(t, 2, 1)
	type opaque struct{ X int }
	r := Generate(ctx, 1, func(part int) ([]Pair[opaque, int64], error) {
		return []Pair[opaque, int64]{{Key: opaque{1}, Value: 1}}, nil
	})
	if _, err := ReduceByKey(r, func(a, b int64) int64 { return a + b }, 2); err == nil {
		t.Fatal("unencodable key should fail the shuffle")
	}
}

func TestQuickReduceByKeyEqualsSerial(t *testing.T) {
	ctx := testContext(t, 3, 2)
	f := func(vals []int64, partsRaw, redRaw uint8) bool {
		parts := int(partsRaw%4) + 1
		redParts := int(redRaw%5) + 1
		pairs := make([]Pair[int64, int64], len(vals))
		want := map[int64]int64{}
		for i, v := range vals {
			k := v % 5
			pairs[i] = Pair[int64, int64]{Key: k, Value: v}
			want[k] += v
		}
		r := FromSlice(ctx, pairs, parts)
		red, err := ReduceByKey(r, func(a, b int64) int64 { return a + b }, redParts)
		if err != nil {
			return false
		}
		got, err := Collect(red)
		if err != nil {
			return false
		}
		gm := map[int64]int64{}
		for _, p := range got {
			gm[p.Key] = p.Value
		}
		return reflect.DeepEqual(gm, want) || (len(want) == 0 && len(gm) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestKeyByComposesWithAggregation(t *testing.T) {
	// Shuffle output feeds treeAggregate — stages compose.
	ctx := testContext(t, 2, 2)
	r := FromSlice(ctx, ints(60), 4)
	keyed := KeyBy(r, func(v int64) int64 { return v % 6 })
	ones := Map(keyed, func(p Pair[int64, int64]) Pair[int64, int64] {
		return Pair[int64, int64]{Key: p.Key, Value: p.Value}
	})
	red, err := ReduceByKey(ones, func(a, b int64) int64 { return a + b }, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := TreeAggregate(red,
		func() int64 { return 0 },
		func(a int64, p Pair[int64, int64]) int64 { return a + p.Value },
		func(a, b int64) int64 { return a + b },
		AggregateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 1770 {
		t.Fatalf("sum over shuffled RDD = %d, want 1770", sum)
	}
}

func TestPairString(t *testing.T) {
	p := Pair[string, int64]{Key: "k", Value: 2}
	if fmt.Sprintf("%s %d", p.Key, p.Value) != "k 2" {
		t.Fatal("pair fields wrong")
	}
}

func TestDistinct(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r := Generate(ctx, 4, func(part int) ([]int64, error) {
		out := make([]int64, 25)
		for i := range out {
			out[i] = int64((part*25 + i) % 7)
		}
		return out, nil
	})
	d, err := Distinct(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("Distinct produced %d values, want 7: %v", len(got), got)
	}
	seen := map[int64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
}
