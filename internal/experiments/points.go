package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxHelperRanks caps the simulated ranks of the points helpers run at once
// across the process. An engine's memory grows with its rank count (a
// second 1024-rank tile engine adds about 560 MB of peak RSS), so beside a
// caller's own point run at most one 1024-rank point, two of 512 ranks, and
// so on: peak memory is that of two 1024-rank engines whatever GOMAXPROCS
// is.
const maxHelperRanks = 1024

// helpers counts, process-wide, the goroutines ForEachPoint runs beside its
// callers (high 32 bits) and the ranks their points may hold (low 32 bits).
// A caller always runs points itself, so capping helpers at GOMAXPROCS-1
// caps running points at GOMAXPROCS, nested calls included, and a nested
// call that finds no free slot simply runs its points inline.
var helpers atomic.Int64

// ForEachPoint calls f(i) for every i in [0, n), running independent points
// concurrently: at most runtime.GOMAXPROCS(0) at once across the process,
// and, beside each caller, helpers holding at most maxHelperRanks simulated
// ranks, ranks being the largest point's rank count. Each point must build
// its own engine and write only its own result slot, so results do not
// depend on the schedule. With n <= 1, GOMAXPROCS == 1 or no free helper it
// is a plain loop on the calling goroutine. After a point panics no further
// point starts; once every started point has returned, the lowest-index
// panic is re-raised on the caller with its value unchanged.
func ForEachPoint(n, ranks int, f func(i int)) {
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	panics := make([]any, n)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			func() {
				defer func() {
					if v := recover(); v != nil {
						panics[i] = v
						failed.Store(true)
					}
				}()
				f(i)
			}()
		}
	}
	helper := int64(1)<<32 | int64(ranks)
	for h := 1; h < n; h++ {
		if v := helpers.Add(helper); int(v>>32) >= runtime.GOMAXPROCS(0) || v&(1<<32-1) > maxHelperRanks {
			helpers.Add(-helper) // no slot free: go on with the helpers taken so far
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-helper)
			work()
		}()
	}
	work()
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
}

// maxRanks is the largest of procs, 0 for none.
func maxRanks(procs []int) (m int) {
	for _, n := range procs {
		m = max(m, n)
	}
	return m
}
