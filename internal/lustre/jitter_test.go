package lustre

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// TestStatsDeterministicUnderJitter runs the same multi-rank workload twice
// under the jittery-net scenario — randomized message delays and a degraded
// NIC shifting every request's arrival time — and requires the full
// []storage.TargetStat ledgers to come back identical. The jitter draws ride the
// seeded, engine-serialized RNGs, so even the noisy path must replay
// exactly.
func TestStatsDeterministicUnderJitter(t *testing.T) {
	plan, err := fault.Scenario(fault.JitteryNet)
	if err != nil {
		t.Fatal(err)
	}
	one := func() []storage.TargetStat {
		cfg := DefaultConfig()
		cfg.Faults = plan
		fs := NewFS(cfg)
		stripe := storage.Stripe{Count: 8, Size: 1 << 18}
		mpi.RunPlan(4, cluster.DefaultConfig(), 1, plan, func(r *mpi.Rank) {
			f := fs.Open(r, "jitter", stripe)
			buf := make([]byte, 96<<10)
			me := int64(r.WorldRank())
			for i := int64(0); i < 6; i++ {
				storage.Write(r, f, (me*6+i)*(96<<10), buf)
			}
			mpi.WorldComm(r).Barrier()
			storage.Read(r, f, me*(96<<10), 96<<10)
		})
		return fs.Stats()
	}
	a, b := one(), one()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Stats() differ across identical jittery-net runs:\n%+v\nvs\n%+v", a, b)
	}
}
