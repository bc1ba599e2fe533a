package collective

// The baseline reduction: the binomial tree, the communication shape of
// Spark's treeAggregate once aggregators leave the executors. (The
// paper's MPI reference curves come from internal/sim's cost model.)
//
// Like the ring collectives, it encodes into pooled wire buffers, sends
// through the persistent channel senders, and releases receive buffers
// once reduced.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"sparker/internal/comm"
)

// TreeReduce reduces every rank's value to the root rank with a
// binomial tree: in round k, rank r with the low k bits zero receives
// from r + 2^k (if alive) and merges. Non-root ranks return the zero V.
// This treats the value as an unsplittable object — exactly the
// restriction the paper's Figure 5 (left) illustrates. ctx bounds the
// collective; WithStepDeadline bounds each round's send or receive.
func TreeReduce[V any](ctx context.Context, e *comm.Endpoint, root int, value V, ops Ops[V]) (V, error) {
	n := e.Size()
	var zero V
	if n == 1 {
		return value, nil
	}
	// Rotate ranks so the root is virtual rank 0.
	vr := (e.Rank() - root + n) % n
	toReal := func(v int) int { return (v + root) % n }

	acc := value
	for dist := 1; dist < n; dist *= 2 {
		if vr%(2*dist) != 0 {
			// Sender: transmit to vr-dist and exit. The wire buffer is a
			// pool draw, so it goes through the recycling SendToAsync
			// path rather than SendTo (which never recycles).
			dst := toReal(vr - dist)
			sctx, cancel := stepContext(ctx)
			wire := encodeInto(ops, comm.GetBuffer(sizeHint(ops, 0, acc)), acc)
			sendDone := make(chan error, 1)
			e.SendToAsync(dst, treeChannel, wire, sendDone)
			err := e.WaitSend(sctx, dst, sendDone)
			cancel()
			if err != nil {
				return zero, fmt.Errorf("collective: tree send: %w", err)
			}
			return zero, nil
		}
		src := vr + dist
		if src < n {
			sctx, cancel := stepContext(ctx)
			in, err := e.RecvFromCtx(sctx, toReal(src), treeChannel)
			cancel()
			if err != nil {
				return zero, fmt.Errorf("collective: tree recv: %w", err)
			}
			merged, release, err := decodeReduce(ops, acc, in)
			if release {
				comm.Release(in)
			}
			if err != nil {
				return zero, err
			}
			acc = merged
		}
	}
	return acc, nil
}

// treeChannel is a reserved channel id so a tree reduce sharing an
// endpoint does not cross streams with PDR reduce-scatter traffic (which
// uses channels 0..P-1).
const treeChannel = 1 << 20

// --- tiny local binary helpers (no dependency on serde to keep the
// collective layer reusable under the pure communicator benches) ------

func putUint32(dst []byte, v uint32) {
	binary.LittleEndian.PutUint32(dst, v)
}

func putFloat64(dst []byte, f float64) {
	binary.LittleEndian.PutUint64(dst, math.Float64bits(f))
}

func uint32At(src []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(src[i:])
}

func putUint64(dst []byte, v uint64) {
	binary.LittleEndian.PutUint64(dst, v)
}

func uint64At(src []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(src[i:])
}

func float64At(src []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
}
