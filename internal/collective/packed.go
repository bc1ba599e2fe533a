package collective

// The zero-suppressed ("packed") chunk form (DESIGN.md §11). Its layout,
// the ½ rule that picks it per chunk from the data, and its encoder and
// validating decoders live in serde (serde/packed.go), the one
// implementation every float vector on the wire shares; this file makes
// it a chunk form of the ring.
//
// Suppressing a zero is sound for a *reduce* only when Reduce is IEEE
// addition and segments start from +0.0: x + (+0.0) == x bit for bit for
// every x a sum from +0.0 can hold, so skipping the add changes nothing.
// (The one corner: a resident −0.0 plus a suppressed +0.0 stays −0.0
// where the dense add would give +0.0 — unreachable from a +0.0 Zero,
// since a sum only produces −0.0 from two −0.0 addends.) That is why
// the form is an ops hook (Ops.Packed) and only F64Ops supplies it: ops
// without it never send a packed frame and refuse one they are sent.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sparker/internal/serde"
)

// ErrMalformedChunk classifies a chunk that fails validation: a form
// byte that is neither dense nor packed, or a packed payload that
// serde's validation refuses (serde.ErrMalformedPacked, wrapped). Every
// decoder validates the whole payload before its first store, so a
// malformed chunk never leaves a partial write behind.
var ErrMalformedChunk = errors.New("collective: malformed chunk")

// CanPack reports whether ops supplies the packed chunk form on top of a
// fixed-stride chunk fast path: any element range of a segment may then
// travel packed instead of as ChunkStride × elements raw bytes.
func (ops Ops[V]) CanPack() bool {
	return ops.Packed != nil && ops.ChunkStride() > 0
}

// f64Packed is F64Ops' packed form: its Reduce is float64 addition.
var f64Packed = &PackedOps[[]float64]{
	ChunkSize:     serde.PackedSizeF64,
	EncodeChunkTo: serde.EncodePackedF64,
	TakeChunkTo:   serde.TakePackedF64,
	ClearChunk: func(v []float64, off, n int) {
		clear(v[off : off+n])
	},
	DecodeReduceChunkInto: func(acc []float64, off, n int, payload []byte) error {
		return malformedChunk(serde.DecodeReducePackedF64(acc, off, n, payload))
	},
	DecodeChunkInto: func(dst []float64, off, n int, payload []byte) error {
		return malformedChunk(serde.DecodePackedF64(dst, off, n, payload))
	},
}

// malformedChunk classifies a packed decoder's refusal as ErrMalformedChunk.
func malformedChunk(err error) error {
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMalformedChunk, err)
	}
	return nil
}

// bodyPacked is BodyOps' packed form: a packed body's range is copied
// out of its bitmap and values, and a chunk is merged into it (the
// candidates are not read: a body's bitmap is the range's presence).
var bodyPacked = &PackedOps[*serde.Body]{
	ChunkSize: func(b *serde.Body, off, n int, _ []uint64, _ int) int { return b.PackedSize(off, n) },
	EncodeChunkTo: func(dst []byte, b *serde.Body, off, n int, _ []uint64, _ int) []byte {
		return b.AppendPacked(dst, off, n)
	},
	DecodeReduceChunkInto: func(acc *serde.Body, off, n int, payload []byte) error {
		return malformedChunk(acc.MergePacked(off, n, payload))
	},
}

// BodyOps are F64Ops over segments held as serde.Body, for the
// reduce-scatter of a compact aggregator (RingReduceScatterFrom) only:
// the same chunk plan, forms and bytes as F64Ops over the dense
// segments, from a send that copies a packed body and a receive that
// merges into it. A chunk is merged into a body on its channel's
// goroutine, never sharded, and a body is not cleared as it is sent (no
// TakeChunkTo): its source recycles it whole. They have no Reduce or
// Decode (every receive is fused) and no allgather assembly.
func BodyOps() Ops[*serde.Body] {
	return Ops[*serde.Body]{
		Encode: func(dst []byte, b *serde.Body) []byte {
			return b.AppendDense(binary.LittleEndian.AppendUint32(dst, uint32(b.N)), 0, b.N)
		},
		DecodeReduceInto: func(acc *serde.Body, wire []byte) (*serde.Body, error) {
			n, body, err := f64WireBody(wire)
			if err == nil && n != acc.N {
				err = fmt.Errorf("collective: segment length mismatch %d vs %d", acc.N, n)
			}
			if err == nil {
				err = acc.MergeDense(0, body[:8*n])
			}
			return acc, err
		},
		EncodedSize: func(b *serde.Body) int { return 4 + 8*b.N },

		Elems:            func(b *serde.Body) int { return b.N },
		ChunkEncodedSize: func(n int) int { return 8 * n },
		EncodeChunkTo:    func(dst []byte, b *serde.Body, off, n int) []byte { return b.AppendDense(dst, off, n) },
		DecodeReduceChunkInto: func(acc *serde.Body, off int, payload []byte) error {
			return acc.MergeDense(off, payload)
		},

		Packed: bodyPacked,
	}
}
