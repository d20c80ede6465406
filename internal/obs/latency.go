package obs

import (
	"math"
	"sort"
	"sync"
)

// LatencyRecorder collects raw per-call latency samples for exact quantile
// reporting. The fixed-bucket Histogram is fine for dashboards, but the
// tenancy acceptance criteria pin p99 orderings between QoS policies whose
// gap can be smaller than a bucket — so the multi-tenant layer records every
// collective call's elapsed virtual seconds and sorts at query time.
//
// Add is safe for concurrent use, since independent engine runs execute side
// by side in one process (experiments.ForEachPoint). Every query sorts
// first, so the reported quantiles are a pure function of the sample
// multiset, whatever order samples land in. Like the rest of
// obs, a recorder only reads virtual clocks; attaching one never perturbs a
// run.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Add records one sample (seconds).
func (l *LatencyRecorder) Add(sec float64) {
	l.mu.Lock()
	l.samples = append(l.samples, sec)
	l.sorted = false
	l.mu.Unlock()
}

// Count returns the number of samples recorded.
func (l *LatencyRecorder) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// sortLocked orders the samples; callers hold mu.
func (l *LatencyRecorder) sortLocked() {
	if !l.sorted {
		sort.Float64s(l.samples)
		l.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by the nearest-rank
// method on the sorted samples; NaN when empty. Nearest-rank keeps the
// result an actual sample, so pinned tables stay hex-float exact.
func (l *LatencyRecorder) Quantile(q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.samples)
	if n == 0 {
		return math.NaN()
	}
	l.sortLocked()
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return l.samples[i]
}
