// Package perf provides the small amount of shared machinery behind the
// repository's performance work: cheap event counters that hot layers (the
// sim engine, the mpi runtime) expose through their stats structs, a
// size-classed sync.Pool buffer arena for the zero-copy message paths, and
// a machine-readable benchmark report (BENCH_*.json) that successive PRs
// diff against to catch wall-clock and allocation regressions.
package perf

import (
	"encoding/json"
	"math/bits"
	"os"
	"sync"
)

// Counter is a monotonically increasing event counter. It is deliberately
// not atomic: the hot paths that increment it (the sim engine's scheduler
// and mailboxes) are single-threaded by construction, and a plain add is
// free. Use atomic counters where concurrency is possible.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { *c++ }

// Add adds n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// --- Buffer arena ---
//
// Payload buffers in the message layer have a strict lifecycle: a sender
// materializes bytes, the sim engine holds them in a mailbox, and exactly
// one receiver consumes them. Once the receiver has decoded or copied the
// bytes out, the buffer is garbage. GetBuf/PutBuf recycle those buffers
// through per-size-class sync.Pools so the encode -> send -> recv -> decode
// cycle settles into zero steady-state allocations.
//
// Ownership rules: a buffer obtained from GetBuf is exclusively owned until
// handed to PutBuf, which must happen at most once and only when no other
// reference survives. Buffers whose references escape (e.g. payloads shared
// by a rendezvous collective across ranks) must simply never be released —
// the arena degrades to the allocator, never to corruption.

const (
	arenaMinBits = 6  // smallest class: 64 B
	arenaMaxBits = 24 // largest class: 16 MiB; bigger buffers bypass the pools
)

var arenaPools [arenaMaxBits - arenaMinBits + 1]sync.Pool

func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < arenaMinBits {
		return 0
	}
	return b - arenaMinBits
}

// GetBuf returns a zeroed-length buffer with capacity >= n, length n. The
// contents are unspecified (reused buffers keep old bytes); callers must
// overwrite the full length before reading.
func GetBuf(n int) []byte {
	cls := classFor(n)
	if cls >= len(arenaPools) {
		return make([]byte, n)
	}
	if v := arenaPools[cls].Get(); v != nil {
		return (*(v.(*[]byte)))[:n]
	}
	return make([]byte, n, 1<<(cls+arenaMinBits))
}

// PutBuf returns a buffer to the arena. The caller must hold the only live
// reference. nil and oversized buffers are ignored.
func PutBuf(b []byte) {
	if b == nil {
		return
	}
	c := cap(b)
	if c < 1<<arenaMinBits {
		return
	}
	cls := bits.Len(uint(c)) - 1 - arenaMinBits // floor class that fits cap
	if cls < 0 || cls >= len(arenaPools) {
		return
	}
	b = b[:0]
	arenaPools[cls].Put(&b)
}

// --- Benchmark report ---

// BenchPoint is one benchmark configuration's measurements. Metrics carries
// the benchmark's domain numbers (sync%, MBps, events/sec, ...) keyed by
// the same unit strings b.ReportMetric uses.
type BenchPoint struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the schema of BENCH_*.json.
type BenchReport struct {
	Schema string       `json:"schema"` // "parcoll-bench/v1"
	Points []BenchPoint `json:"points"`
}

// NewBenchReport returns an empty report with the current schema tag.
func NewBenchReport() *BenchReport {
	return &BenchReport{Schema: "parcoll-bench/v1"}
}

// Add appends a point.
func (r *BenchReport) Add(p BenchPoint) { r.Points = append(r.Points, p) }

// Write serializes the report to path with stable formatting (sorted keys,
// indented) so committed reports diff cleanly across PRs.
func (r *BenchReport) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchReport loads a previously written report (for regression diffs).
func ReadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
