package mllib

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sparker/internal/linalg"
)

func TestLinearModelSaveLoad(t *testing.T) {
	m := &LinearModel{
		Weights:   []float64{1.5, -2.5, 0, math.Pi},
		Losses:    []float64{0.9, 0.5, 0.3},
		Threshold: 0.5,
		kind:      "logistic-regression",
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.(*LinearModel)
	if !reflect.DeepEqual(got.Weights, m.Weights) ||
		!reflect.DeepEqual(got.Losses, m.Losses) ||
		got.Threshold != m.Threshold || got.Kind() != m.Kind() {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	// The loaded model predicts identically.
	x, _ := linalg.NewSparse(4, []int32{0, 3}, []float64{1, 1})
	if got.Predict(x) != m.Predict(x) {
		t.Fatal("loaded model predicts differently")
	}
}

func TestLDAModelSaveLoad(t *testing.T) {
	m := &LDAModel{
		K:     2,
		Vocab: 3,
		Lambda: [][]float64{
			{1, 2, 3},
			{4, 5, 6},
		},
		Bounds: []float64{-3, -2.5},
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLDAModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 2 || got.Vocab != 3 || !reflect.DeepEqual(got.Lambda, m.Lambda) || !reflect.DeepEqual(got.Bounds, m.Bounds) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := LoadLDAModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail")
	}
	// Kind confusion: an LDA file is not a linear model.
	lda := &LDAModel{K: 1, Vocab: 1, Lambda: [][]float64{{1}}}
	var buf bytes.Buffer
	if err := lda.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Fatal("kind mismatch should fail")
	}
	// Truncated file.
	var buf2 bytes.Buffer
	m := &LinearModel{Weights: []float64{1, 2, 3}, kind: "svm"}
	if err := m.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	trunc := buf2.Bytes()[:buf2.Len()-5]
	if _, err := LoadModel(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated file should fail")
	}
}

// unbacked is a model header of the given kind followed by length words
// that no bytes back.
func unbacked(kind modelKind, words ...uint64) []byte {
	var b bytes.Buffer
	if err := writeHeader(&b, kind); err != nil {
		panic(err)
	}
	for _, w := range words {
		b.Write(binary.LittleEndian.AppendUint64(nil, w))
	}
	return b.Bytes()
}

// retiredRegressionFile is a linear-regression model file as SaveModel
// wrote it before that family was retired: the header, then the weight
// and loss vectors.
func retiredRegressionFile(weights, losses []float64) []byte {
	var b bytes.Buffer
	if err := writeHeader(&b, kindRegression); err != nil {
		panic(err)
	}
	if err := writeF64s(&b, weights); err != nil {
		panic(err)
	}
	if err := writeF64s(&b, losses); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// TestLoadModelRefusesRetiredKind: a linear-regression file, well formed
// or truncated, is refused by its kind byte before any payload is read.
func TestLoadModelRefusesRetiredKind(t *testing.T) {
	for _, in := range [][]byte{retiredRegressionFile([]float64{2, -1}, []float64{0.5}), unbacked(kindRegression, 1<<32)} {
		_, err := LoadModel(bytes.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "retired") {
			t.Fatalf("LoadModel of a linear-regression file: %v, want the retired-kind error", err)
		}
	}
}

// TestLoadModelRefusesUnbackedLength: a loader allocates as the bytes
// arrive, never ahead of them from a length word, so a short file with
// a huge length fails with an error instead of exhausting memory.
func TestLoadModelRefusesUnbackedLength(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		lda  bool
	}{
		{"linear", unbacked(kindLinear, 1<<32), false},
		{"kmeans", unbacked(kindKMeans, 1<<32), false},
		{"lda", unbacked(kindLDA, 1<<32), true},
		// The largest counts the loaders accept, still with nothing
		// behind them.
		{"linear-kind", unbacked(kindLinear, 1<<20), false},
		{"kmeans-centers", unbacked(kindKMeans, 1<<20), false},
		{"lda-topics", unbacked(kindLDA, 1<<20, 1<<20), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if c.lda {
				_, err = LoadLDAModel(bytes.NewReader(c.in))
			} else {
				_, err = LoadModel(bytes.NewReader(c.in))
			}
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("loaded a %d-byte file whose lengths nothing backs", len(c.in))
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
				t.Fatalf("allocated %d bytes for a %d-byte input", n, len(c.in))
			}
		})
	}
}

// FuzzLoadModel feeds arbitrary bytes to both SPKM loaders: every input
// loads or returns an error, never panics, and any model that loads
// survives a save and a second load bit-for-bit.
func FuzzLoadModel(f *testing.F) {
	for _, m := range randModels(rand.New(rand.NewSource(5))) {
		var b bytes.Buffer
		if err := SaveModel(&b, m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	var lda bytes.Buffer
	if err := (&LDAModel{K: 2, Vocab: 3, Lambda: [][]float64{{1, 2, 3}, {4, 5, 6}}, Bounds: []float64{-1}}).Save(&lda); err != nil {
		f.Fatal(err)
	}
	f.Add(lda.Bytes())
	f.Add(retiredRegressionFile([]float64{2, -1}, []float64{0.5}))
	f.Add(unbacked(kindRegression, 1<<32))
	f.Fuzz(func(t *testing.T, in []byte) {
		if m, err := LoadModel(bytes.NewReader(in)); err == nil {
			var b1, b2 bytes.Buffer
			if err := SaveModel(&b1, m); err != nil {
				t.Fatalf("saving a loaded %s: %v", m.Kind(), err)
			}
			again, err := LoadModel(bytes.NewReader(b1.Bytes()))
			if err != nil {
				t.Fatalf("reloading a saved %s: %v", m.Kind(), err)
			}
			if err := SaveModel(&b2, again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) || again.Kind() != m.Kind() {
				t.Fatalf("%s changed across save and load", m.Kind())
			}
		}
		if m, err := LoadLDAModel(bytes.NewReader(in)); err == nil {
			var b1, b2 bytes.Buffer
			if err := m.Save(&b1); err != nil {
				t.Fatalf("saving a loaded LDA model: %v", err)
			}
			again, err := LoadLDAModel(bytes.NewReader(b1.Bytes()))
			if err != nil {
				t.Fatalf("reloading a saved LDA model: %v", err)
			}
			if err := again.Save(&b2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatal("LDA model changed across save and load")
			}
		}
	})
}

func TestAllReduceStrategyTrains(t *testing.T) {
	ctx := testContext(t, 3, 2)
	train := trainingSet(ctx, 300, 2, 6)
	split, err := TrainLogisticRegression(train, LogisticRegressionConfig{
		NumFeatures: 2,
		GD:          GDConfig{Iterations: 10, StepSize: 2, Strategy: StrategySplit},
	})
	if err != nil {
		t.Fatal(err)
	}
	allred, err := TrainLogisticRegression(train, LogisticRegressionConfig{
		NumFeatures: 2,
		GD:          GDConfig{Iterations: 10, StepSize: 2, Strategy: StrategyAllReduce},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range split.Weights {
		if math.Abs(split.Weights[i]-allred.Weights[i]) > 1e-8 {
			t.Fatalf("allreduce strategy diverges from split at weight %d", i)
		}
	}
	if StrategyAllReduce.String() != "allreduce" {
		t.Fatal("strategy name wrong")
	}
}
