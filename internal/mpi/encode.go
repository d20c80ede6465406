package mpi

import (
	"encoding/binary"
	"math"

	"repro/internal/perf"
)

// Wire encoding helpers. Collectives move typed values as little-endian
// byte payloads so that transfer costs reflect honest wire sizes.
//
// The decode helpers come in two flavours: the alloc-per-call dec* form for
// payloads that become caller-visible values, and in-place combine/decode
// forms (combineInt64Bytes etc.) that read the wire bytes directly so the
// reduction hot paths — called once per rank per collective — allocate
// nothing per contribution.

func encInt64s(vals []int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

// encInt64sBuf is encInt64s into an arena buffer; the consumer releases it
// with perf.PutBuf once decoded (reduction chains do).
func encInt64sBuf(vals []int64) []byte {
	b := perf.GetBuf(8 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

func decInt64s(b []byte) []int64 {
	vals := make([]int64, len(b)/8)
	decInt64sInto(vals, b)
	return vals
}

// decInt64sInto decodes min(len(dst), len(b)/8) values into dst.
func decInt64sInto(dst []int64, b []byte) {
	n := len(b) / 8
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// combineInt64Bytes folds the encoded vector b elementwise into acc without
// materializing a decoded slice. Arithmetic order matches decode-then-
// combine exactly, so results are bit-identical to the allocating path.
func combineInt64Bytes(acc []int64, b []byte, op Op) {
	for i := range acc {
		v := int64(binary.LittleEndian.Uint64(b[8*i:]))
		switch op {
		case OpSum:
			acc[i] += v
		case OpMax:
			if v > acc[i] {
				acc[i] = v
			}
		case OpMin:
			if v < acc[i] {
				acc[i] = v
			}
		}
	}
}

// combineFloat64Bytes is combineInt64Bytes for float64 vectors.
func combineFloat64Bytes(acc []float64, b []byte, op Op) {
	for i := range acc {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		switch op {
		case OpSum:
			acc[i] += v
		case OpMax:
			if v > acc[i] {
				acc[i] = v
			}
		case OpMin:
			if v < acc[i] {
				acc[i] = v
			}
		}
	}
}

func encFloat64s(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func decFloat64s(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

// routedBlock is a data block in flight through the Bruck alltoall router.
type routedBlock struct {
	src, dst int
	data     []byte
}

func encRouted(blocks []routedBlock) []byte {
	n := 4
	for _, b := range blocks {
		n += 12 + len(b.data)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blocks)))
	for _, b := range blocks {
		out = binary.LittleEndian.AppendUint32(out, uint32(b.src))
		out = binary.LittleEndian.AppendUint32(out, uint32(b.dst))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b.data)))
		out = append(out, b.data...)
	}
	return out
}

func decRouted(b []byte) []routedBlock {
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	blocks := make([]routedBlock, n)
	for i := range blocks {
		src := int(binary.LittleEndian.Uint32(b))
		dst := int(binary.LittleEndian.Uint32(b[4:]))
		ln := int(binary.LittleEndian.Uint32(b[8:]))
		b = b[12:]
		blocks[i] = routedBlock{src: src, dst: dst, data: b[:ln:ln]}
		b = b[ln:]
	}
	return blocks
}
