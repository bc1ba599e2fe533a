package mllib

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"sparker/internal/linalg"
)

// randModel builds a random instance of each Model implementation so
// the round-trip property test covers every family.
func randModels(rng *rand.Rand) []Model {
	dim := 5 + rng.Intn(20)
	randVec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	lr := &LinearModel{Weights: randVec(dim), Losses: randVec(3), Threshold: 0.5, kind: "logistic-regression"}
	svm := &LinearModel{Weights: randVec(dim), Losses: randVec(4), Threshold: 0, kind: "svm"}
	k := 2 + rng.Intn(4)
	km := &KMeansModel{Centers: make([][]float64, k), CostHistory: randVec(3)}
	for i := range km.Centers {
		km.Centers[i] = randVec(dim)
	}
	return []Model{lr, svm, km}
}

func randPoints(rng *rand.Rand, dim, n int) []linalg.SparseVector {
	xs := make([]linalg.SparseVector, n)
	for i := range xs {
		nnz := 1 + rng.Intn(dim)
		idx := rng.Perm(dim)[:nnz]
		vals := make([]float64, nnz)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		ii := make([]int32, nnz)
		for j, v := range idx {
			ii[j] = int32(v)
		}
		xs[i] = linalg.SparseVector{Indices: ii, Values: vals}
	}
	return xs
}

// TestModelRoundTripAllKinds is the save/load property test for every
// model family: SaveModel then LoadModel must yield a model whose
// predictions agree bit-for-bit on random inputs.
func TestModelRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		for _, m := range randModels(rng) {
			var buf bytes.Buffer
			if err := SaveModel(&buf, m); err != nil {
				t.Fatalf("SaveModel(%s): %v", m.Kind(), err)
			}
			got, err := LoadModel(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("LoadModel(%s): %v", m.Kind(), err)
			}
			if got.Kind() != m.Kind() {
				t.Fatalf("kind round-trip: got %q want %q", got.Kind(), m.Kind())
			}
			if got.NumFeatures() != m.NumFeatures() {
				t.Fatalf("%s: NumFeatures %d != %d", m.Kind(), got.NumFeatures(), m.NumFeatures())
			}
			for _, x := range randPoints(rng, m.NumFeatures(), 25) {
				if a, b := m.Predict(x), got.Predict(x); a != b {
					t.Fatalf("%s: prediction diverged after round trip: %v vs %v", m.Kind(), a, b)
				}
			}
		}
	}
}

// TestModelFileRoundTrip exercises SaveModelFile, the sparker-train
// -save-model sink, read back through LoadModel.
func TestModelFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range randModels(rng) {
		path := t.TempDir() + "/" + m.Kind() + ".spkm"
		if err := SaveModelFile(path, m); err != nil {
			t.Fatalf("SaveModelFile(%s): %v", m.Kind(), err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadModel(f)
		f.Close()
		if err != nil {
			t.Fatalf("LoadModel(%s): %v", m.Kind(), err)
		}
		x := randPoints(rng, m.NumFeatures(), 1)[0]
		if got.Predict(x) != m.Predict(x) {
			t.Fatalf("%s: file round trip diverged", m.Kind())
		}
	}
}

// TestLoadModelRejectsLDA: LDA predates the Model interface; the
// unified loader must point callers at LoadLDAModel instead of
// misparsing the payload.
func TestLoadModelRejectsLDA(t *testing.T) {
	m := &LDAModel{K: 2, Vocab: 3, Lambda: [][]float64{{1, 2, 3}, {4, 5, 6}}, Bounds: []float64{-1}}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("LoadModel accepted an LDA payload")
	}
}
