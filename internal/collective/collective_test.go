package collective

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sparker/internal/comm"
	"sparker/internal/transport"
)

// makeInputs builds per-rank random segment sets: inputs[r][i] is
// segment i at rank r. want[i] is the elementwise sum over ranks.
func makeInputs(rng *rand.Rand, ranks, segments, segLen int) (inputs [][][]float64, want [][]float64) {
	inputs = make([][][]float64, ranks)
	want = make([][]float64, segments)
	for i := range want {
		want[i] = make([]float64, segLen)
	}
	for r := 0; r < ranks; r++ {
		inputs[r] = make([][]float64, segments)
		for i := 0; i < segments; i++ {
			seg := make([]float64, segLen)
			for j := range seg {
				seg[j] = math.Round(rng.Float64()*100) / 4
				want[i][j] += seg[j]
			}
			inputs[r][i] = seg
		}
	}
	return inputs, want
}

func runGroup(t *testing.T, n int, name string, body func(e *comm.Endpoint) error) {
	t.Helper()
	net := transport.NewMem()
	defer net.Close()
	eps, err := comm.NewGroup(net, name, n)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseGroup(eps)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, e := range eps {
		wg.Add(1)
		go func(i int, e *comm.Endpoint) {
			defer wg.Done()
			errs[i] = body(e)
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func segsEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestRingReduceScatter(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n*100 + p)))
				inputs, want := makeInputs(rng, n, p*n, 16)
				var mu sync.Mutex
				got := map[int][]float64{}
				runGroup(t, n, fmt.Sprintf("rs-%d-%d", n, p), func(e *comm.Endpoint) error {
					owned, err := RingReduceScatter(context.Background(), e, inputs[e.Rank()], p, F64Ops())
					if err != nil {
						return err
					}
					// Check ownership layout: rank r owns p*N + (r+1)%N per channel.
					if n > 1 {
						for ch := 0; ch < p; ch++ {
							idx := ch*n + (e.Rank()+1)%n
							if _, ok := owned[idx]; !ok {
								return fmt.Errorf("rank %d missing owned segment %d", e.Rank(), idx)
							}
						}
					}
					mu.Lock()
					for i, v := range owned {
						got[i] = v
					}
					mu.Unlock()
					return nil
				})
				if len(got) != p*n {
					t.Fatalf("got %d owned segments, want %d", len(got), p*n)
				}
				for i, v := range got {
					if !segsEqual(v, want[i], 1e-9) {
						t.Errorf("segment %d: got %v want %v", i, v, want[i])
					}
				}
			})
		}
	}
}

func TestRingReduceScatterBadArgs(t *testing.T) {
	runGroup(t, 2, "rs-bad", func(e *comm.Endpoint) error {
		if _, err := RingReduceScatter(context.Background(), e, [][]float64{{1}}, 1, F64Ops()); err == nil {
			return fmt.Errorf("wrong segment count should fail")
		}
		if _, err := RingReduceScatter(context.Background(), e, nil, 0, F64Ops()); err == nil {
			return fmt.Errorf("zero parallelism should fail")
		}
		return nil
	})
}

func TestRingAllReduce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			const p = 2
			rng := rand.New(rand.NewSource(int64(n)))
			inputs, want := makeInputs(rng, n, p*n, 8)
			results := make([][][]float64, n)
			runGroup(t, n, fmt.Sprintf("ar-%d", n), func(e *comm.Endpoint) error {
				all, err := RingAllReduce(context.Background(), e, inputs[e.Rank()], p, F64Ops())
				if err != nil {
					return err
				}
				results[e.Rank()] = all
				return nil
			})
			for r := 0; r < n; r++ {
				for i := range want {
					if !segsEqual(results[r][i], want[i], 1e-9) {
						t.Errorf("rank %d segment %d: got %v want %v", r, i, results[r][i], want[i])
					}
				}
			}
		})
	}
}

func TestTreeReduce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		for root := 0; root < n; root += 3 {
			t.Run(fmt.Sprintf("n=%d/root=%d", n, root), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n*10 + root)))
				inputs, want := makeInputs(rng, n, 1, 12)
				var got []float64
				runGroup(t, n, fmt.Sprintf("tr-%d-%d", n, root), func(e *comm.Endpoint) error {
					v, err := TreeReduce(context.Background(), e, root, inputs[e.Rank()][0], F64Ops())
					if err != nil {
						return err
					}
					if e.Rank() == root {
						got = v
					} else if v != nil {
						return fmt.Errorf("non-root rank %d got non-zero result", e.Rank())
					}
					return nil
				})
				if !segsEqual(got, want[0], 1e-9) {
					t.Errorf("root result %v, want %v", got, want[0])
				}
			})
		}
	}
}

func TestRingReduceScatterOverTCP(t *testing.T) {
	const n, p = 3, 2
	net := transport.NewTCP()
	defer net.Close()
	eps, err := comm.NewGroup(net, "rs-tcp", n)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseGroup(eps)
	rng := rand.New(rand.NewSource(7))
	inputs, want := makeInputs(rng, n, p*n, 1024)
	var (
		mu  sync.Mutex
		got = map[int][]float64{}
		wg  sync.WaitGroup
	)
	for _, e := range eps {
		wg.Add(1)
		go func(e *comm.Endpoint) {
			defer wg.Done()
			owned, err := RingReduceScatter(context.Background(), e, inputs[e.Rank()], p, F64Ops())
			if err != nil {
				t.Errorf("rank %d: %v", e.Rank(), err)
				return
			}
			mu.Lock()
			for i, v := range owned {
				got[i] = v
			}
			mu.Unlock()
		}(e)
	}
	wg.Wait()
	for i := range want {
		if !segsEqual(got[i], want[i], 1e-9) {
			t.Errorf("segment %d mismatch over TCP", i)
		}
	}
}

// Property: for arbitrary inputs, ring reduce-scatter agrees with the
// serial fold — the central correctness claim split aggregation relies on.
func TestQuickRingReduceScatterEqualsSerial(t *testing.T) {
	f := func(seed int64, nRaw, pRaw, lenRaw uint8) bool {
		n := int(nRaw%5) + 1
		p := int(pRaw%3) + 1
		segLen := int(lenRaw%9) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs, want := makeInputs(rng, n, p*n, segLen)

		net := transport.NewMem()
		defer net.Close()
		eps, err := comm.NewGroup(net, "quick-rs", n)
		if err != nil {
			return false
		}
		defer comm.CloseGroup(eps)
		var (
			mu  sync.Mutex
			got = map[int][]float64{}
			wg  sync.WaitGroup
			ok  = true
		)
		for _, e := range eps {
			wg.Add(1)
			go func(e *comm.Endpoint) {
				defer wg.Done()
				owned, err := RingReduceScatter(context.Background(), e, inputs[e.Rank()], p, F64Ops())
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					ok = false
					return
				}
				for i, v := range owned {
					got[i] = v
				}
			}(e)
		}
		wg.Wait()
		if !ok || len(got) != p*n {
			return false
		}
		for i := range want {
			if !segsEqual(got[i], want[i], 1e-6) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestF64OpsEncodeDecodeRoundTrip(t *testing.T) {
	ops := F64Ops()
	f := func(v []float64) bool {
		b := ops.Encode(nil, v)
		got, err := ops.Decode(b)
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] && !(math.IsNaN(got[i]) && math.IsNaN(v[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestF64OpsReduceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reduce with mismatched lengths should panic")
		}
	}()
	F64Ops().Reduce([]float64{1}, []float64{1, 2})
}

// The bandwidth-optimality invariant (Patarasuk & Yuan): ring
// reduce-scatter moves exactly (N-1)/N of the data out of each rank —
// measured through the endpoints' real traffic counters.
func TestRingReduceScatterTrafficIsBandwidthOptimal(t *testing.T) {
	const n, p, segLen = 4, 2, 128
	net := transport.NewMem()
	defer net.Close()
	eps, err := comm.NewGroup(net, "traffic", n)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseGroup(eps)
	rng := rand.New(rand.NewSource(3))
	inputs, _ := makeInputs(rng, n, p*n, segLen)

	var wg sync.WaitGroup
	for _, e := range eps {
		wg.Add(1)
		go func(e *comm.Endpoint) {
			defer wg.Done()
			if _, err := RingReduceScatter(context.Background(), e, inputs[e.Rank()], p, F64Ops()); err != nil {
				t.Errorf("rank %d: %v", e.Rank(), err)
			}
		}(e)
	}
	wg.Wait()

	// Payload per rank: full vector = p*n segments × segLen floats.
	// Ring sends (n-1) steps × p channels × one segment of
	// (4 + 8·segLen) wire bytes, each framed by the 4-byte epoch header.
	wantMsgs := int64((n - 1) * p)
	wantBytes := wantMsgs * int64(epochHeaderSize+4+8*segLen)
	for _, e := range eps {
		st := e.Stats()
		if st.MsgsSent != wantMsgs || st.MsgsReceived != wantMsgs {
			t.Fatalf("rank %d moved %d/%d messages, want %d", e.Rank(), st.MsgsSent, st.MsgsReceived, wantMsgs)
		}
		if st.BytesSent != wantBytes {
			t.Fatalf("rank %d sent %d bytes, want %d ((N-1)/N of the vector)", e.Rank(), st.BytesSent, wantBytes)
		}
	}
}

// Corrupted wire data must surface as errors from every collective, not
// hang or panic.
func TestDecodeErrorPropagates(t *testing.T) {
	badOps := Ops[[]float64]{
		Reduce: func(a, b []float64) []float64 { return a },
		Encode: encodeF64,
		Decode: func([]byte) ([]float64, error) {
			return nil, fmt.Errorf("injected decode failure")
		},
	}
	runGroup(t, 2, "bad-decode-rs", func(e *comm.Endpoint) error {
		segs := [][]float64{{1}, {2}}
		if _, err := RingReduceScatter(context.Background(), e, segs, 1, badOps); err == nil {
			return fmt.Errorf("reduce-scatter should surface decode errors")
		}
		return nil
	})
	runGroup(t, 2, "bad-decode-tr", func(e *comm.Endpoint) error {
		if _, err := TreeReduce(context.Background(), e, 0, []float64{1}, badOps); err == nil && e.Rank() == 0 {
			return fmt.Errorf("tree reduce root should surface decode errors")
		}
		return nil
	})
}

func TestRingAllGatherBadIndex(t *testing.T) {
	runGroup(t, 2, "ag-bad", func(e *comm.Endpoint) error {
		owned := map[int][]float64{99: {1}}
		if _, err := RingAllGather(context.Background(), e, owned, 1, F64Ops()); err == nil {
			return fmt.Errorf("out-of-range owned index should fail")
		}
		return nil
	})
}
