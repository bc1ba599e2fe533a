package mllib

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Model persistence: a small versioned binary format so trained models
// survive process restarts — the operational piece MLlib provides via
// model.save/load.

const (
	modelMagic   = 0x53504b4d // "SPKM"
	modelVersion = 1
)

type modelKind uint8

const (
	kindLinear modelKind = iota + 1
	kindRegression
	kindLDA
	kindKMeans
)

func writeHeader(w io.Writer, kind modelKind) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], modelMagic)
	hdr[4] = modelVersion
	hdr[5] = byte(kind)
	_, err := w.Write(hdr[:])
	return err
}

func readHeader(r io.Reader) (modelKind, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(hdr[:]) != modelMagic {
		return 0, fmt.Errorf("mllib: not a sparker model file")
	}
	if hdr[4] != modelVersion {
		return 0, fmt.Errorf("mllib: unsupported model version %d", hdr[4])
	}
	return modelKind(hdr[5]), nil
}

func writeF64s(w io.Writer, vs []float64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func readF64s(r io.Reader) ([]float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(b[:])
	if n > 1<<32 {
		return nil, fmt.Errorf("mllib: implausible vector length %d", n)
	}
	out := make([]float64, n)
	for i := range out {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, err
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	return out, nil
}

func writeString(w io.Writer, s string) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint64(b[:])
	if n > 1<<20 {
		return "", fmt.Errorf("mllib: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Save writes the linear model.
func (m *LinearModel) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindLinear); err != nil {
		return err
	}
	if err := writeString(bw, m.kind); err != nil {
		return err
	}
	if err := writeF64s(bw, []float64{m.Threshold}); err != nil {
		return err
	}
	if err := writeF64s(bw, m.Weights); err != nil {
		return err
	}
	if err := writeF64s(bw, m.Losses); err != nil {
		return err
	}
	return bw.Flush()
}

// loadLinearPayload reads a linear classifier body (header consumed).
func loadLinearPayload(br *bufio.Reader) (*LinearModel, error) {
	m := &LinearModel{}
	var err error
	if m.kind, err = readString(br); err != nil {
		return nil, err
	}
	th, err := readF64s(br)
	if err != nil || len(th) != 1 {
		return nil, fmt.Errorf("mllib: corrupt threshold: %v", err)
	}
	m.Threshold = th[0]
	if m.Weights, err = readF64s(br); err != nil {
		return nil, err
	}
	if m.Losses, err = readF64s(br); err != nil {
		return nil, err
	}
	return m, nil
}

// Save writes the regression model.
func (m *RegressionModel) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindRegression); err != nil {
		return err
	}
	if err := writeF64s(bw, m.Weights); err != nil {
		return err
	}
	if err := writeF64s(bw, m.Losses); err != nil {
		return err
	}
	return bw.Flush()
}

// loadRegressionPayload reads a regression body (header consumed).
func loadRegressionPayload(br *bufio.Reader) (*RegressionModel, error) {
	m := &RegressionModel{}
	var err error
	if m.Weights, err = readF64s(br); err != nil {
		return nil, err
	}
	if m.Losses, err = readF64s(br); err != nil {
		return nil, err
	}
	return m, nil
}

// Save writes the kmeans model.
func (m *KMeansModel) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindKMeans); err != nil {
		return err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(m.Centers)))
	if _, err := bw.Write(b[:]); err != nil {
		return err
	}
	for _, c := range m.Centers {
		if err := writeF64s(bw, c); err != nil {
			return err
		}
	}
	if err := writeF64s(bw, m.CostHistory); err != nil {
		return err
	}
	return bw.Flush()
}

// loadKMeansPayload reads a kmeans body (header consumed).
func loadKMeansPayload(br *bufio.Reader) (*KMeansModel, error) {
	var b [8]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return nil, err
	}
	k := binary.LittleEndian.Uint64(b[:])
	if k == 0 || k > 1<<20 {
		return nil, fmt.Errorf("mllib: implausible center count %d", k)
	}
	m := &KMeansModel{Centers: make([][]float64, k)}
	var err error
	for i := range m.Centers {
		if m.Centers[i], err = readF64s(br); err != nil {
			return nil, err
		}
		if len(m.Centers[i]) != len(m.Centers[0]) {
			return nil, fmt.Errorf("mllib: ragged centers (%d vs %d)", len(m.Centers[i]), len(m.Centers[0]))
		}
	}
	if m.CostHistory, err = readF64s(br); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveModel writes any unified-interface model in the versioned binary
// format; LoadModel reads it back. (LDAModel predates the interface
// and keeps its own Save/LoadLDAModel pair.)
func SaveModel(w io.Writer, m Model) error {
	switch t := m.(type) {
	case *LinearModel:
		return t.Save(w)
	case *RegressionModel:
		return t.Save(w)
	case *KMeansModel:
		return t.Save(w)
	default:
		return fmt.Errorf("mllib: SaveModel: unsupported model type %T", m)
	}
}

// LoadModel reads any model written by SaveModel (or the per-type Save
// methods), dispatching on the header's kind byte.
func LoadModel(r io.Reader) (Model, error) {
	br := bufio.NewReader(r)
	kind, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindLinear:
		return loadLinearPayload(br)
	case kindRegression:
		return loadRegressionPayload(br)
	case kindKMeans:
		return loadKMeansPayload(br)
	case kindLDA:
		return nil, fmt.Errorf("mllib: LDA models do not implement the Model interface; use LoadLDAModel")
	default:
		return nil, fmt.Errorf("mllib: unknown model kind %d", kind)
	}
}

// SaveModelFile writes m to path (the sparker-train -save-model sink).
func SaveModelFile(path string, m Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveModel(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadModelFile reads a model from path (the sparker-serve -model
// source).
func LoadModelFile(path string) (Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("mllib: loading %s: %w", path, err)
	}
	return m, nil
}

// Save writes the LDA model.
func (m *LDAModel) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindLDA); err != nil {
		return err
	}
	var dims [16]byte
	binary.LittleEndian.PutUint64(dims[:], uint64(m.K))
	binary.LittleEndian.PutUint64(dims[8:], uint64(m.Vocab))
	if _, err := bw.Write(dims[:]); err != nil {
		return err
	}
	for _, row := range m.Lambda {
		if err := writeF64s(bw, row); err != nil {
			return err
		}
	}
	if err := writeF64s(bw, m.Bounds); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadLDAModel reads a model written by LDAModel.Save.
func LoadLDAModel(r io.Reader) (*LDAModel, error) {
	br := bufio.NewReader(r)
	kind, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if kind != kindLDA {
		return nil, fmt.Errorf("mllib: file holds model kind %d, not an LDA model", kind)
	}
	var dims [16]byte
	if _, err := io.ReadFull(br, dims[:]); err != nil {
		return nil, err
	}
	m := &LDAModel{
		K:     int(binary.LittleEndian.Uint64(dims[:])),
		Vocab: int(binary.LittleEndian.Uint64(dims[8:])),
	}
	if m.K <= 0 || m.Vocab <= 0 || m.K > 1<<20 {
		return nil, fmt.Errorf("mllib: corrupt LDA dimensions %d×%d", m.K, m.Vocab)
	}
	m.Lambda = make([][]float64, m.K)
	for k := range m.Lambda {
		row, err := readF64s(br)
		if err != nil {
			return nil, err
		}
		if len(row) != m.Vocab {
			return nil, fmt.Errorf("mllib: lambda row %d has %d entries, want %d", k, len(row), m.Vocab)
		}
		m.Lambda[k] = row
	}
	if m.Bounds, err = readF64s(br); err != nil {
		return nil, err
	}
	return m, nil
}
