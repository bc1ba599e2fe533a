package mllib

import (
	"fmt"
	"math"
	"sort"

	"sparker/internal/core"
	"sparker/internal/rdd"
)

// LDAConfig configures TrainLDA. The paper's Table 3 setting is K=100;
// the aggregator per iteration is the K×V expected-count matrix, which
// is what makes LDA-N (nytimes, V≈100k) reduction-bound.
type LDAConfig struct {
	// K is the topic count.
	K int
	// Vocab is the vocabulary size V.
	Vocab int
	// Alpha is the document-topic prior (default 1/K).
	Alpha float64
	// Eta is the topic-word prior (default 1/K).
	Eta float64
	// Iterations is the outer EM iteration count (default 10).
	Iterations int
	// InnerIters bounds the per-document fixed-point loop (default 20).
	InnerIters int
	// Strategy, Depth, Parallelism select the aggregation path.
	Strategy    Strategy
	Depth       int
	Parallelism int
	// Seed initializes lambda.
	Seed int64
}

// fill validates c, sets its defaults and returns its aggregation options.
func (c *LDAConfig) fill() ([]core.AggOption, error) {
	if c.K <= 0 || c.Vocab <= 0 {
		return nil, fmt.Errorf("mllib: LDA needs positive K and Vocab, got K=%d V=%d", c.K, c.Vocab)
	}
	if c.Alpha == 0 {
		c.Alpha = 1.0 / float64(c.K)
	}
	if c.Eta == 0 {
		c.Eta = 1.0 / float64(c.K)
	}
	if c.Iterations == 0 {
		c.Iterations = 10
	}
	if c.InnerIters == 0 {
		c.InnerIters = 20
	}
	return c.Strategy.Options(c.Depth, c.Parallelism)
}

// LDAModel is a trained topic model.
type LDAModel struct {
	K, Vocab int
	// Lambda is the K×V variational parameter of the topic-word
	// Dirichlets.
	Lambda [][]float64
	// Bounds is the per-iteration corpus log-likelihood proxy (higher
	// is better; it should broadly improve over iterations).
	Bounds []float64
}

// TopicDistributions returns row-normalized topic-word distributions.
func (m *LDAModel) TopicDistributions() [][]float64 {
	out := make([][]float64, m.K)
	for k := range out {
		row := make([]float64, m.Vocab)
		var sum float64
		for _, v := range m.Lambda[k] {
			sum += v
		}
		for i, v := range m.Lambda[k] {
			row[i] = v / sum
		}
		out[k] = row
	}
	return out
}

// InferDoc estimates a document's topic mixture under the trained
// model: the variational E-step run to convergence against fixed
// lambda, returning the normalized gamma.
func (m *LDAModel) InferDoc(d Document, alpha float64, innerIters int) []float64 {
	if alpha <= 0 {
		alpha = 1.0 / float64(m.K)
	}
	if innerIters <= 0 {
		innerIters = 50
	}
	flatBeta := flatten(expDirichletExpectation(m.Lambda), m.Vocab)
	acc := make([]float64, m.K*m.Vocab+2)
	gamma := docEStep(d, flatBeta, acc, m.K, m.Vocab, alpha, innerIters)
	var sum float64
	for _, g := range gamma {
		sum += g
	}
	if sum == 0 {
		// Empty document: uniform mixture.
		out := make([]float64, m.K)
		for i := range out {
			out[i] = 1.0 / float64(m.K)
		}
		return out
	}
	for i := range gamma {
		gamma[i] /= sum
	}
	return gamma
}

// TopTerms returns the n highest-weight vocabulary ids of topic k.
func (m *LDAModel) TopTerms(k, n int) []int {
	idx := make([]int, m.Vocab)
	for i := range idx {
		idx[i] = i
	}
	row := m.Lambda[k]
	sort.Slice(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// TrainLDA fits LDA with batch variational EM (Hoffman et al.; the
// same E-step/M-step structure as MLlib's OnlineLDAOptimizer with batch
// fraction 1). Each outer iteration performs exactly one aggregation of
// the K×V sufficient statistics using the configured strategy.
func TrainLDA(docs *rdd.RDD[Document], cfg LDAConfig) (*LDAModel, error) {
	opts, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	k, v := cfg.K, cfg.Vocab

	// Deterministic pseudo-random lambda init around 1.0.
	lambda := make([][]float64, k)
	seed := uint64(cfg.Seed)*2862933555777941757 + 3037000493
	for i := range lambda {
		row := make([]float64, v)
		for j := range row {
			seed = seed*6364136223846793005 + 1442695040888963407
			row[j] = 0.05 + 1.9*float64(seed>>40)/float64(1<<24)
		}
		lambda[i] = row
	}

	model := &LDAModel{K: k, Vocab: v, Lambda: lambda}
	// Aggregator layout: K*V sstats, then [K*V] loglik, [K*V+1] tokens.
	dim := k*v + 2

	tr, root, tctx := startTrainSpan(docs.Context(), "lda", cfg.Strategy, nil)
	defer func() { root.End() }()

	for iter := 0; iter < cfg.Iterations; iter++ {
		expElogBeta := expDirichletExpectation(lambda)
		flatBeta := flatten(expElogBeta, v)
		alpha, inner := cfg.Alpha, cfg.InnerIters

		it, ictx := startIteration(tr, root, tctx, iter+1)
		agg, err := core.AggregateF64(ictx, docs, core.F64Funcs[Document]{Dim: dim, SeqOp: func(acc []float64, d Document) []float64 {
			docEStep(d, flatBeta, acc, k, v, alpha, inner)
			return acc
		}}, opts...)
		if err != nil {
			it.EndErr(err)
			root.SetAttr("error", err.Error())
			return nil, fmt.Errorf("mllib: LDA iteration %d: %w", iter, err)
		}
		it.End()

		// M-step: lambda = eta + sstats (sstats already include the
		// expElogBeta factor, Hoffman-style).
		for kk := 0; kk < k; kk++ {
			row := lambda[kk]
			base := kk * v
			for j := 0; j < v; j++ {
				row[j] = cfg.Eta + agg[base+j]
			}
		}
		tokens := agg[k*v+1]
		if tokens > 0 {
			model.Bounds = append(model.Bounds, agg[k*v]/tokens)
		} else {
			model.Bounds = append(model.Bounds, math.Inf(-1))
		}
	}
	return model, nil
}

// docEStep runs the per-document variational fixed point, accumulates
// expected counts into acc and returns the document's gamma (nil for
// an empty document).
func docEStep(d Document, flatBeta []float64, acc []float64, k, v int, alpha float64, innerIters int) []float64 {
	nWords := len(d.WordIDs)
	if nWords == 0 {
		return nil
	}
	total := d.TokenCount()

	gamma := make([]float64, k)
	expElogTheta := make([]float64, k)
	phinorm := make([]float64, nWords)
	for i := range gamma {
		gamma[i] = alpha + total/float64(k)
	}
	updateExpElogTheta(gamma, expElogTheta)

	for it := 0; it < innerIters; it++ {
		for wi, w := range d.WordIDs {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += expElogTheta[kk] * flatBeta[kk*v+int(w)]
			}
			phinorm[wi] = s + 1e-100
		}
		change := 0.0
		for kk := 0; kk < k; kk++ {
			var s float64
			for wi, w := range d.WordIDs {
				s += d.Counts[wi] * flatBeta[kk*v+int(w)] / phinorm[wi]
			}
			ng := alpha + expElogTheta[kk]*s
			change += math.Abs(ng - gamma[kk])
			gamma[kk] = ng
		}
		updateExpElogTheta(gamma, expElogTheta)
		if change/float64(k) < 1e-4 {
			break
		}
	}

	// Final responsibilities → sufficient statistics and bound proxy.
	for wi, w := range d.WordIDs {
		var s float64
		for kk := 0; kk < k; kk++ {
			s += expElogTheta[kk] * flatBeta[kk*v+int(w)]
		}
		s += 1e-100
		for kk := 0; kk < k; kk++ {
			acc[kk*v+int(w)] += d.Counts[wi] * expElogTheta[kk] * flatBeta[kk*v+int(w)] / s
		}
		acc[k*v] += d.Counts[wi] * math.Log(s)
	}
	acc[k*v+1] += total
	return gamma
}

// updateExpElogTheta fills out = exp(E[log theta]) for Dirichlet(gamma).
func updateExpElogTheta(gamma, out []float64) {
	var sum float64
	for _, g := range gamma {
		sum += g
	}
	dgSum := digamma(sum)
	for i, g := range gamma {
		out[i] = math.Exp(digamma(g) - dgSum)
	}
}

// expDirichletExpectation returns exp(E[log beta]) row-wise.
func expDirichletExpectation(lambda [][]float64) [][]float64 {
	out := make([][]float64, len(lambda))
	for k, row := range lambda {
		var sum float64
		for _, x := range row {
			sum += x
		}
		dgSum := digamma(sum)
		o := make([]float64, len(row))
		for i, x := range row {
			o[i] = math.Exp(digamma(x) - dgSum)
		}
		out[k] = o
	}
	return out
}

func flatten(m [][]float64, v int) []float64 {
	out := make([]float64, len(m)*v)
	for k, row := range m {
		copy(out[k*v:], row)
	}
	return out
}

// digamma computes ψ(x) for x > 0 via the recurrence ψ(x) = ψ(x+1) − 1/x
// and the asymptotic series for large arguments.
func digamma(x float64) float64 {
	var r float64
	for x < 6 {
		r -= 1 / x
		x++
	}
	f := 1 / (x * x)
	return r + math.Log(x) - 0.5/x -
		f*(1.0/12-f*(1.0/120-f*(1.0/252-f*(1.0/240-f*(1.0/132)))))
}
