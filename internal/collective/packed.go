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
