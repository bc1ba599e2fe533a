package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"sparker/internal/collective"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/transport"
)

// lrDim is the sparse logistic regression's feature count: each sample
// touches five columns, so a partition's gradient is a few percent
// non-zero and every float vector the strategies serialize packs.
const lrDim = 3000

// lrPoint is sample i's five (column, value) features and its label.
func lrPoint(i int64) (cols [5]int, vals [5]float64, label float64) {
	for k := range cols {
		cols[k] = int((i*7919 + int64(k)*104729) % lrDim)
		vals[k] = float64((i*13+int64(k)*7)%101)/101 - 0.5
	}
	return cols, vals, float64(i % 2)
}

// trainSparseLR runs four gradient-descent steps of logistic regression
// over r with Aggregate(ctx, opts): the aggregator is the gradient sum,
// then the loss sum and the sample count, which tails returns per step.
// l2 adds a squared-L2 term to the update; frac < 1 samples a
// deterministic mini-batch per step.
func trainSparseLR(t *testing.T, ctx context.Context, r *rdd.RDD[int64], l2 bool, frac float64, opts ...AggOption) (w, losses []float64, tails [][2]float64) {
	t.Helper()
	f64 := collective.F64Ops()
	w = make([]float64, lrDim)
	for it := 1; it <= 4; it++ {
		seqOp := func(acc []float64, i int64) []float64 {
			if frac < 1 && (uint64(i)*2654435761+uint64(it)*40503)%100 >= uint64(frac*100) {
				return acc
			}
			cols, vals, y := lrPoint(i)
			m := 0.0
			for k, c := range cols {
				m += w[c] * vals[k]
			}
			p := 1 / (1 + math.Exp(-m))
			for k, c := range cols {
				acc[c] += (p - y) * vals[k]
			}
			acc[lrDim] += math.Log1p(math.Exp(-m)) + (1-y)*m
			acc[lrDim+1]++
			return acc
		}
		g, err := Aggregate(ctx, r, AggFuncs[int64, []float64, []float64]{
			Zero: vecZero(lrDim + 2), SeqOp: seqOp, MergeOp: AddF64,
			SplitOp: SplitSlice[float64], ReduceOp: AddF64, ConcatOp: ConcatSlices[float64], Ops: &f64,
		}, opts...)
		if err != nil {
			t.Fatalf("step %d: %v", it, err)
		}
		step, count := 1/math.Sqrt(float64(it)), g[lrDim+1]
		for j := range w {
			grad := g[j] / count
			if l2 {
				grad += 0.01 * w[j]
			}
			w[j] -= step * grad
		}
		losses = append(losses, g[lrDim]/count)
		tails = append(tails, [2]float64{g[lrDim], count})
	}
	return w, losses, tails
}

// digest hashes the bit patterns of the weights and the loss history.
func digest(w, losses []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range [][]float64{w, losses} {
		for _, x := range s {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestSparseLRWireEquivalence: the packed []float64 wire is lossless on
// every strategy's path — the tree's blocks and driver merge, the IMM
// gather, the ring and its driver gather, allreduce's rank-0 copy, and
// the degraded allreduce's replicated result. Sparse logistic regression
// trains to the weights and loss histories recorded when every one of
// those paths but the ring still shipped dense vectors, bit for bit,
// under Simple and L2 updates, full and mini-batch. IMM and the degraded
// allreduce (an IMM run) also equal the tree: with one partition per
// executor their driver merges add in the same order.
func TestSparseLRWireEquivalence(t *testing.T) {
	const execs, samples = 3, 240
	want := map[string]uint64{
		"tree/simple/full": 0xeb414c2b224442e2, "tree/simple/minibatch": 0x3790ff8031918942,
		"tree/l2/full": 0x57e487dfe225cac0, "tree/l2/minibatch": 0xaebe42ef2d7a4c62,
		"imm/simple/full": 0xeb414c2b224442e2, "imm/simple/minibatch": 0x3790ff8031918942,
		"imm/l2/full": 0x57e487dfe225cac0, "imm/l2/minibatch": 0xaebe42ef2d7a4c62,
		"split/simple/full": 0x9726223810e1953f, "split/simple/minibatch": 0xe2ecb03d4f8495b3,
		"split/l2/full": 0x57e487dfe225cac0, "split/l2/minibatch": 0xaebe42ef2d7a4c62,
		"allreduce/simple/full": 0x9726223810e1953f, "allreduce/simple/minibatch": 0xe2ecb03d4f8495b3,
		"allreduce/l2/full": 0x57e487dfe225cac0, "allreduce/l2/minibatch": 0xaebe42ef2d7a4c62,
		"degraded-allreduce/simple/full": 0xeb414c2b224442e2, "degraded-allreduce/simple/minibatch": 0x3790ff8031918942,
		"degraded-allreduce/l2/full": 0x57e487dfe225cac0, "degraded-allreduce/l2/minibatch": 0xaebe42ef2d7a4c62,
	}
	for _, upd := range []string{"simple", "l2"} {
		for _, batch := range []string{"full", "minibatch"} {
			l2, frac := upd == "l2", 1.0
			if batch == "minibatch" {
				frac = 0.3
			}
			got := map[string]uint64{}
			var tree []float64
			for _, s := range []Strategy{StrategyTree, StrategyIMM, StrategySplit, StrategyAllReduce} {
				ctx, err := rdd.NewContext(rdd.Config{
					Name: fmt.Sprintf("wire-%v-%s-%s", s, upd, batch), NumExecutors: execs, CoresPerExecutor: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				w, losses, _ := trainSparseLR(t, context.Background(), vectorRDD(ctx, samples, execs), l2, frac, WithStrategy(s))
				ctx.Close()
				got[s.String()] = digest(w, losses)
				switch s {
				case StrategyTree:
					tree = w
				case StrategyIMM:
					bitsEqual(t, "imm vs tree", w, tree)
				}
			}
			// Every ring step dies at rank 1's inbound link, so each
			// aggregation degrades to IMM and replicates its result.
			name := fmt.Sprintf("wire-degraded-%s-%s", upd, batch)
			victim := transport.Addr(fmt.Sprintf("comm/%s/ring/1", name))
			ctx := chaosContext(t, name, execs, 1, 2, &transport.FaultRule{
				Match: func(a transport.Addr) bool { return a == victim }, Kind: transport.FaultKill, AfterMsgs: 1,
			})
			w, losses, _ := trainSparseLR(t, context.Background(), vectorRDD(ctx, samples, execs), l2, frac,
				WithStrategy(StrategyAllReduce), WithKeepKey("lr/grad"), WithDeadline(500*time.Millisecond))
			if n := ctx.Metrics().Count(metrics.CounterRingFallback); n != 4 {
				t.Fatalf("%s: ring-fallback counter = %d, want one per step", name, n)
			}
			bitsEqual(t, "degraded allreduce vs tree", w, tree)
			got["degraded-allreduce"] = digest(w, losses)

			for s, d := range got {
				key := s + "/" + upd + "/" + batch
				if d != want[key] {
					t.Errorf("%s: weights and losses hash to %#x, want %#x", key, d, want[key])
				}
			}
		}
	}
}

// TestSparseLRRingWidth states the arithmetic of narrowing the ring. The
// 24 KB aggregator rides one channel by the bytes, or four when the
// chunk size is forced down. Which segment, and so which ring order, an
// element's sum takes depends on the width, so the weights may differ by
// rounding; the test logs the largest difference in ULPs. The loss and
// count elements sit in the last segment under both layouts and are
// summed in the same order, so they, and the loss histories, must be
// bit-identical.
func TestSparseLRRingWidth(t *testing.T) {
	const execs, samples = 3, 240
	for _, s := range []Strategy{StrategySplit, StrategyAllReduce} {
		for _, upd := range []string{"simple", "l2"} {
			for _, batch := range []string{"full", "minibatch"} {
				name := fmt.Sprintf("%v/%s/%s", s, upd, batch)
				l2, frac := upd == "l2", 1.0
				if batch == "minibatch" {
					frac = 0.3
				}
				ctx, err := rdd.NewContext(rdd.Config{
					Name: "width-" + strings.ReplaceAll(name, "/", "-"), NumExecutors: execs, CoresPerExecutor: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				r := vectorRDD(ctx, samples, execs)
				var w [2][]float64
				var losses [2][]float64
				var tails [2][][2]float64
				for k, par := range []int{1, 4} {
					run := context.Background()
					if par > 1 {
						run = fillChannels(run, lrDim+2, par)
					}
					steps := ringSteps(ctx)
					w[k], losses[k], tails[k] = trainSparseLR(t, run, r, l2, frac, WithStrategy(s))
					if n, want := ringSteps(ctx)-steps, int64(4*execs*par*(execs-1)*phases(s)); n != want {
						t.Fatalf("%s: %d ring steps over 4 iterations, want %d (%d channels)", name, n, want, par)
					}
				}
				ctx.Close()
				bitsEqual(t, name+": losses", losses[1], losses[0])
				for i := range tails[0] {
					for j, what := range []string{"loss sum", "count"} {
						if math.Float64bits(tails[0][i][j]) != math.Float64bits(tails[1][i][j]) {
							t.Errorf("%s: step %d %s %v at P=1, %v at P=4", name, i+1, what, tails[0][i][j], tails[1][i][j])
						}
					}
				}
				maxULP, differ := uint64(0), 0
				for i := range w[0] {
					a, b := math.Float64bits(w[0][i]), math.Float64bits(w[1][i])
					if a != b {
						differ++
						maxULP = max(maxULP, max(a, b)-min(a, b))
					}
				}
				t.Logf("%s: %d of %d weights differ between P=1 and P=4, by at most %d ULP", name, differ, len(w[0]), maxULP)
			}
		}
	}
}
