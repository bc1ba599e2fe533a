package data

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sparker/internal/linalg"
	"sparker/internal/mllib"
)

// ReadLibSVMPacked parses the libsvm text format ("label idx:val
// idx:val …", 1-based indices) straight into a packed CSR partition:
// each entry streams into the shared arenas as it is parsed, with no
// per-row intermediate slices. part tags the matrix's partition index
// (minibatch sampling keys its RNG stream off it); numFeatures 0 means
// infer dimensionality from the data.
func ReadLibSVMPacked(r io.Reader, part, numFeatures int) (*linalg.CSRMatrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	b := linalg.NewCSRBuilder(numFeatures, 0, 0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("data: line %d: bad label %q", lineNo, fields[0])
		}
		// Normalize the common ±1 convention to 0/1.
		if label == -1 {
			label = 0
		}
		b.StartRow(label)
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return nil, fmt.Errorf("data: line %d: bad feature %q", lineNo, f)
			}
			idx, err := strconv.Atoi(f[:colon])
			if err != nil || idx < 1 {
				return nil, fmt.Errorf("data: line %d: bad index %q", lineNo, f[:colon])
			}
			val, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("data: line %d: bad value %q", lineNo, f[colon+1:])
			}
			// libsvm is 1-based; the builder enforces strictly increasing
			// in-range indices (duplicates and disorder error here, as
			// NewSparse did for the slice path).
			if err := b.AppendEntry(int32(idx-1), val); err != nil {
				return nil, fmt.Errorf("data: line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	m, err := b.Build()
	if err != nil {
		return nil, err
	}
	m.Part = part
	return m, nil
}

// ReadLibSVM parses libsvm text into labeled points. It is a thin
// wrapper over ReadLibSVMPacked: rows are zero-copy views into one
// packed arena, so the slice costs O(rows) headers, not O(nnz) copies.
func ReadLibSVM(r io.Reader, numFeatures int) ([]mllib.LabeledPoint, error) {
	m, err := ReadLibSVMPacked(r, 0, numFeatures)
	if err != nil {
		return nil, err
	}
	out := make([]mllib.LabeledPoint, m.Rows())
	for i := range out {
		out[i] = mllib.LabeledPoint{Label: m.Label(i), Features: m.Row(i)}
	}
	return out, nil
}

// WriteLibSVM renders points in libsvm format.
func WriteLibSVM(w io.Writer, points []mllib.LabeledPoint) error {
	bw := bufio.NewWriter(w)
	for _, p := range points {
		label := p.Label
		if _, err := fmt.Fprintf(bw, "%g", label); err != nil {
			return err
		}
		for i, ix := range p.Features.Indices {
			if _, err := fmt.Fprintf(bw, " %d:%g", ix+1, p.Features.Values[i]); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLibSVMFile loads a libsvm file from disk.
func ReadLibSVMFile(path string, numFeatures int) ([]mllib.LabeledPoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLibSVM(f, numFeatures)
}

// ReadBagOfWordsFile loads a UCI bag-of-words file from disk.
func ReadBagOfWordsFile(path string) ([]mllib.Document, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadBagOfWords(f)
}

// maxBagOfWordsDocs bounds the document count a bag-of-words header may
// declare.
const maxBagOfWordsDocs = 1 << 26

// ReadBagOfWords parses the UCI bag-of-words format the paper's LDA
// corpora (enron, nytimes) ship in: three header lines (D, W, NNZ) then
// "docID wordID count" triples, 1-based ids, docID-sorted.
func ReadBagOfWords(r io.Reader) (docs []mllib.Document, vocab int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var header [3]int
	for i := 0; i < 3; i++ {
		if !sc.Scan() {
			return nil, 0, fmt.Errorf("data: truncated bag-of-words header")
		}
		header[i], err = strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil {
			return nil, 0, fmt.Errorf("data: bad header line %d: %w", i+1, err)
		}
	}
	nDocs, vocab := header[0], header[1]
	// The header sizes the document table before a single triple has been
	// read, so it is bounded: the largest UCI corpus (pubmed) has 8.2M
	// documents.
	if nDocs < 0 || nDocs > maxBagOfWordsDocs || vocab < 0 {
		return nil, 0, fmt.Errorf("data: bad bag-of-words header (D=%d, W=%d)", nDocs, vocab)
	}
	counts := make([]map[int32]float64, nDocs)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, 0, fmt.Errorf("data: bad triple %q", line)
		}
		d, err1 := strconv.Atoi(fields[0])
		w, err2 := strconv.Atoi(fields[1])
		c, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil || d < 1 || d > nDocs || w < 1 || w > vocab || !(c > 0) {
			return nil, 0, fmt.Errorf("data: bad triple %q", line)
		}
		if counts[d-1] == nil {
			counts[d-1] = map[int32]float64{}
		}
		counts[d-1][int32(w-1)] += c
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	docs = make([]mllib.Document, nDocs)
	for i, m := range counts {
		if m == nil {
			m = map[int32]float64{}
		}
		docs[i] = docFromCounts(m)
	}
	return docs, vocab, nil
}

// WriteBagOfWords renders docs in the UCI format.
func WriteBagOfWords(w io.Writer, docs []mllib.Document, vocab int) error {
	bw := bufio.NewWriter(w)
	nnz := 0
	for _, d := range docs {
		nnz += len(d.WordIDs)
	}
	if _, err := fmt.Fprintf(bw, "%d\n%d\n%d\n", len(docs), vocab, nnz); err != nil {
		return err
	}
	for i, d := range docs {
		for j, word := range d.WordIDs {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", i+1, word+1, d.Counts[j]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
