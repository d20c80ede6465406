package pvfs

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// TestBackendConformance runs the shared storage.Backend suite against the
// list-I/O server farm.
func TestBackendConformance(t *testing.T) {
	mk := func() storage.Backend { return NewFS(storage.DefaultFarmConfig()) }
	storagetest.Run(t, "listio", mk)
	storagetest.RunAllocs(t, "listio", mk)
}

// TestBackendFaultConformance runs the shared fault-injection leg: every
// server fail-stops inside the conformance window, the vectored call's
// scalar-fallback retry loop exhausts into a typed *recovery.TargetError,
// and a whole-operation retry after the window recovers byte-exact.
func TestBackendFaultConformance(t *testing.T) {
	storagetest.RunFaults(t, "listio", func() storage.Backend {
		cfg := storage.DefaultFarmConfig()
		cfg.Faults = &fault.Plan{
			Name:        "conf-dead-servers",
			ServerFails: []fault.OSTFail{{OST: -1, Prob: 1, At: storagetest.FaultAt, For: storagetest.FaultFor}},
		}
		return NewFS(cfg)
	})
}
