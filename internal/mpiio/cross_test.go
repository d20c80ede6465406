package mpiio

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/bb"
	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pvfs"
	"repro/internal/storage"
)

// Cross-product equivalence: every way a collective call can run — blocking
// or split, flat or two-level, on each backend, through an identity or a
// translated view, healthy or with an aggregator crashing mid-call — must
// land the bytes a trivially simple oracle lands with plain independent
// writes, read them back intact, and account every virtual second.

const (
	crossRanks, crossPEs = 8, 4
	crossBlocks, crossBS = 40, 64
	crossLen             = crossBlocks * crossBS
)

// blockSwap is a test Translator: the logical file is cut into blk-sized
// blocks and each even/odd pair trades places in the physical file.
type blockSwap struct{ blk int64 }

func (x blockSwap) Phys(off, n int64) []datatype.Segment {
	var out []datatype.Segment
	for n > 0 {
		b, in := off/x.blk, off%x.blk
		k := min(x.blk-in, n)
		out = append(out, datatype.Segment{Off: (b^1)*x.blk + in, Len: k})
		off, n = off+k, n-k
	}
	return out
}

// crossOracle is the reference: each rank's view-mapped segments, pushed
// through the translator when there is one, copied into place one by one.
func crossOracle(xl Translator) []byte {
	var file []byte
	put := func(off int64, b []byte) {
		if need := off + int64(len(b)); need > int64(len(file)) {
			file = append(file, make([]byte, need-int64(len(file)))...)
		}
		copy(file[off:], b)
	}
	for rank := 0; rank < crossRanks; rank++ {
		data := pattern(rank, crossLen)
		var pos int64
		for _, s := range interleavedView(rank, crossRanks, crossBlocks, crossBS).Map(0, crossLen) {
			phys := []datatype.Segment{s}
			if xl != nil {
				phys = xl.Phys(s.Off, s.Len)
			}
			for _, ph := range phys {
				put(ph.Off, data[pos:pos+ph.Len])
				pos += ph.Len
			}
		}
	}
	return file
}

func crossBackend(name string, plan *fault.Plan) storage.Backend {
	lcfg := lustre.DefaultConfig()
	lcfg.Faults = plan
	switch name {
	case "listio":
		return pvfs.NewFS(lcfg.FarmConfig)
	case "bb":
		return bb.New(lustre.NewFS(lcfg), bb.Config{Faults: plan})
	}
	return lustre.NewFS(lcfg)
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-15 }

func TestCrossProductMatchesOracle(t *testing.T) {
	for _, split := range []bool{false, true} {
		for _, intra := range []bool{false, true} {
			for _, backend := range []string{"lustre", "listio", "bb"} {
				for _, xl := range []Translator{nil, blockSwap{blk: 96}} {
					for _, scen := range []string{fault.Healthy, fault.OneAggCrash} {
						name := fmt.Sprintf("split=%v/intra=%v/%s/xlate=%v/%s", split, intra, backend, xl != nil, scen)
						t.Run(name, func(t *testing.T) { crossCase(t, split, intra, backend, xl, scen) })
					}
				}
			}
		}
	}
}

func crossCase(t *testing.T, split, intra bool, backend string, xl Translator, scen string) {
	plan, err := fault.Scenario(scen)
	if err != nil {
		t.Fatal(err)
	}
	if plan.IsZero() {
		plan = nil
	}
	fs := crossBackend(backend, plan)
	rec := obs.NewRecorder()
	var file []byte
	mpi.RunPlan(crossRanks, fatCluster(crossPEs, cluster.Block), 1, plan, func(r *mpi.Rank) {
		rank := r.WorldRank()
		comm := mpi.WorldComm(r)
		r.SetTracer(rec)
		f := Open(comm, fs, "x", testStripe(), Hints{CBBufferSize: 1024, IntraNode: intra})
		f.SetTranslator(xl)
		f.SetView(interleavedView(rank, crossRanks, crossBlocks, crossBS))
		t0 := r.Now()
		want := pattern(rank, crossLen)
		var got []byte
		if split {
			q := f.WriteAllBegin(0, want)
			r.Compute(1e-4)
			f.WriteAllEnd(q)
			comm.Barrier() // MPI consistency: sync between a write and others' reads
			q = f.ReadAllBegin(0, crossLen)
			r.Compute(1e-4)
			got = f.ReadAllEnd(q)
		} else {
			f.WriteAtAll(0, want)
			comm.Barrier()
			got = f.ReadAtAll(0, crossLen)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d read back wrong bytes", rank)
		}
		// Phases sum to elapsed: no virtual second goes unattributed. The
		// only unprofiled time is compute — the caller's own between Begin
		// and End, and the one watchdog period a crashed aggregator role
		// idles out so its clock keeps pace with the ranks detecting it.
		var compute float64
		if split {
			compute = 2e-4
		}
		if plan.HasCrashes() && rank == plan.Crashes[0].Rank {
			compute += watchdogTimeout
		}
		if b, el := f.Breakdown(), r.Now()-t0; !near(b.Total()+compute, el) {
			t.Errorf("rank %d: sync+exchange+io+other = %g plus compute %g, elapsed %g", rank, b.Total(), compute, el)
		}
		// Hidden + exposed equals the tail: every async round's I/O span
		// (issue to virtual completion) is accounted one way or the other.
		// A crash plan runs split calls through the blocking resilient
		// protocol, which leaves no tails to account.
		if split && plan == nil {
			var tail float64
			for _, ev := range rec.EventsShared() {
				if ev.Rank == rank && ev.Kind == "round-io" {
					tail += ev.Dur()
				}
			}
			if o := f.Overlap(); !near(o.Hidden+o.Exposed, tail) {
				t.Errorf("rank %d: hidden %g + exposed %g != tail %g", rank, o.Hidden, o.Exposed, tail)
			}
		}
		fs.Drain(r)
		comm.Barrier()
		if rank == 0 {
			file = fs.Open(r, "x", testStripe()).Contents()
		}
	})
	if !bytes.Equal(file, crossOracle(xl)) {
		t.Error("file bytes differ from the independent-write oracle")
	}
}
