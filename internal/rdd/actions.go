package rdd

import (
	"encoding/binary"
	"fmt"

	"sparker/internal/serde"
)

// Actions materialize RDDs. Every result crosses the executor→driver
// boundary serialized with serde, so element types must be
// serde-encodable (built-in, Register, or RegisterSelf).

// encodeSlice frames a []T as count + serde-encoded elements.
func encodeSlice[T any](vs []T) ([]byte, error) {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(vs)))
	var err error
	for _, v := range vs {
		b, err = serde.Encode(b, v)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeSlice is the inverse of encodeSlice.
func decodeSlice[T any](b []byte) ([]T, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("rdd: short slice frame")
	}
	n := int(binary.LittleEndian.Uint32(b))
	off := 4
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		v, used, err := serde.Decode(b[off:])
		if err != nil {
			return nil, err
		}
		off += used
		tv, ok := v.(T)
		if !ok {
			return nil, fmt.Errorf("rdd: decoded %T, want %T", v, *new(T))
		}
		out = append(out, tv)
	}
	return out, nil
}

// Collect returns every element, in partition order.
func Collect[T any](r *RDD[T]) ([]T, error) {
	payloads, err := r.ctx.RunJob(JobSpec{
		Tasks:  r.parts,
		Policy: r.PlacementPolicy(),
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			return encodeSlice(data)
		},
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, p := range payloads {
		vs, err := decodeSlice[T](p)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// Count returns the number of elements.
func Count[T any](r *RDD[T]) (int64, error) {
	payloads, err := r.ctx.RunJob(JobSpec{
		Tasks:  r.parts,
		Policy: r.PlacementPolicy(),
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			return binary.LittleEndian.AppendUint64(nil, uint64(len(data))), nil
		},
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range payloads {
		if len(p) < 8 {
			return 0, fmt.Errorf("rdd: short count payload")
		}
		total += int64(binary.LittleEndian.Uint64(p))
	}
	return total, nil
}

// Take returns the first n elements in partition order. It collects
// partition by partition, stopping as soon as n elements are gathered.
func Take[T any](r *RDD[T], n int) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	var out []T
	for part := 0; part < r.parts && len(out) < n; part++ {
		p := part
		payloads, err := r.ctx.RunJob(JobSpec{
			Tasks:     1,
			Placement: []int{r.PlacementOf(p)},
			Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
				data, err := r.Materialize(ec, p)
				if err != nil {
					return nil, err
				}
				if len(data) > n {
					data = data[:n]
				}
				return encodeSlice(data)
			},
		})
		if err != nil {
			return nil, err
		}
		vs, err := decodeSlice[T](payloads[0])
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out, nil
}
