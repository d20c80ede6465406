package lustre

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// TestBackendConformance runs the shared storage.Backend suite against the
// lustre model — the reference implementation the other backends mimic.
func TestBackendConformance(t *testing.T) {
	mk := func() storage.Backend { return NewFS(DefaultConfig()) }
	storagetest.Run(t, "lustre", mk)
	storagetest.RunAllocs(t, "lustre", mk)
}

// TestBackendFaultConformance runs the shared fault-injection leg: every
// OST rejects requests inside the conformance window, the retry
// budget exhausts into a typed *recovery.TargetError, and a whole-operation
// retry after the window recovers byte-exact.
func TestBackendFaultConformance(t *testing.T) {
	storagetest.RunFaults(t, "lustre", func() storage.Backend {
		cfg := DefaultConfig()
		cfg.Faults = &fault.Plan{
			Name:     "conf-flaky-ost",
			OSTFails: []fault.OSTFail{{OST: -1, Prob: 1, At: storagetest.FaultAt, For: storagetest.FaultFor}},
		}
		return NewFS(cfg)
	})
}
