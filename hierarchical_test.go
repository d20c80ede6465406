// Two-level (hierarchical) collective I/O regression tests. With
// parcoll_intranode on, PEs sharing a node merge their requests and data
// into the node leader before anything crosses the NIC (DESIGN.md §13).
// These tests pin the feature at the top of the stack three ways: bit-exact
// hex-float goldens of the two-level virtual times across node fatness and
// ParColl subgroup counts, strict equality of every pre-existing golden
// with the feature off (the knob must be invisible until turned), and the
// acceptance property the feature exists for — obs-counted cross-node
// messages and the synchronization share both drop against the flat
// protocol, by a margin that widens with PEs per node.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/workload"
)

// hierPreset is the bench preset with the two-level protocol on and the
// given node fatness.
func hierPreset(pes int) experiments.Preset {
	p := experiments.BenchPreset()
	p.Cluster.PEsPerNode = pes
	p.IntraNode = true
	return p
}

// hierGoldenMetrics computes the pinned two-level metrics: tile-IO write
// and read under the two-level protocol at three node fatnesses and two
// ParColl subgroup counts, plus the fat-node sweep's traffic counters.
func hierGoldenMetrics() map[string]string {
	got := make(map[string]string)
	for _, pes := range []int{2, 8, 16} {
		p := hierPreset(pes)
		for _, g := range p.TileGroupSweep(64, []int{1, 4}) {
			got[fmt.Sprintf("tile/pes=%d/groups=%d", pes, g.Groups)] = fmt.Sprintf(
				"writeBW=%x readBW=%x sync=%x", g.WriteBW, g.ReadBW, g.Sync)
		}
	}
	p := experiments.BenchPreset()
	for _, pt := range p.IntraNodeSweep(64, 2, []int{8, 16}) {
		got[fmt.Sprintf("sweep/pes=%d/intra=%v", pt.PEsPerNode, pt.IntraNode)] = fmt.Sprintf(
			"sync=%x share=%x intraMsgs=%d interMsgs=%d interBytes=%d",
			pt.Breakdown.Sync, pt.SyncShare(), pt.IntraMsgs, pt.InterMsgs, pt.InterBytes)
	}
	return got
}

// hierGoldenWant are the bit-exact hex-float goldens of the two-level
// protocol (captured from the implementation that introduced it). A change
// here means the two-level virtual-time behaviour moved — deliberate model
// changes must update the goldens and say why.
var hierGoldenWant = map[string]string{
	"sweep/pes=16/intra=false": "sync=0x1.6382d0befdf9ap-02 share=0x1.f4ac9900ad181p-01 intraMsgs=1984 interMsgs=6144 interBytes=245760",
	"sweep/pes=16/intra=true":  "sync=0x1.5800f0323e709p-02 share=0x1.f4429804c0a7p-01 intraMsgs=38464 interMsgs=384 interBytes=245760",
	"sweep/pes=8/intra=false":  "sync=0x1.63bc0ffad30b2p-02 share=0x1.f4add4839be61p-01 intraMsgs=960 interMsgs=7168 interBytes=286720",
	"sweep/pes=8/intra=true":   "sync=0x1.5a0fc33a49daap-02 share=0x1.f45514fbde97dp-01 intraMsgs=35904 interMsgs=896 interBytes=286720",
	"tile/pes=16/groups=1":     "writeBW=0x1.b51e9234c5b65p+28 readBW=0x1.8a76958246fedp+28 sync=0x1.9457a5d6b1a69p-01",
	"tile/pes=16/groups=4":     "writeBW=0x1.c9ba6ab51772ep+28 readBW=0x1.b1065b08f0817p+28 sync=0x1.7c1cb09ce805ep-01",
	"tile/pes=2/groups=1":      "writeBW=0x1.8cd6730e8742ep+31 readBW=0x1.d6d1c15cb0ca7p+30 sync=0x1.687fe917a210cp-05",
	"tile/pes=2/groups=4":      "writeBW=0x1.912c655cb1b1bp+31 readBW=0x1.3f1c7e22668cp+31 sync=0x1.4f3abe72e5d17p-05",
	"tile/pes=8/groups=1":      "writeBW=0x1.ac20764dbd1c8p+29 readBW=0x1.6330216501518p+29 sync=0x1.729ab69d03aedp-02",
	"tile/pes=8/groups=4":      "writeBW=0x1.b3ebc9041bb7dp+29 readBW=0x1.7f7bbd20e9cap+29 sync=0x1.5f2728531709p-02",
}

// TestHierarchicalGoldenMetrics pins the two-level path's virtual times to
// bit-exact hex-float goldens across node fatness and subgroup counts.
func TestHierarchicalGoldenMetrics(t *testing.T) {
	got := hierGoldenMetrics()
	for k, w := range hierGoldenWant {
		if got[k] != w {
			t.Errorf("%s:\n  got:  %s\n  want: %s", k, got[k], w)
		}
	}
	if len(got) != len(hierGoldenWant) {
		t.Errorf("golden key sets differ: got %d metrics, want %d", len(got), len(hierGoldenWant))
	}
}

// TestHierarchicalRunTwiceIdenticalAtRoot pins run-to-run identity of the
// full two-level metric set within one build.
func TestHierarchicalRunTwiceIdenticalAtRoot(t *testing.T) {
	first, second := hierGoldenMetrics(), hierGoldenMetrics()
	for k, v := range first {
		if second[k] != v {
			t.Errorf("%s: runs differ:\n  first:  %s\n  second: %s", k, v, second[k])
		}
	}
}

// TestHierarchicalOffPreservesGoldens re-runs every pre-existing golden of
// determinism_test.go with the new knobs explicitly at their defaults
// (2 PEs per node, two-level off): the feature must be invisible until
// turned on — bit-for-bit.
func TestHierarchicalOffPreservesGoldens(t *testing.T) {
	p := experiments.BenchPreset()
	p.Cluster.PEsPerNode = 2
	p.IntraNode = false
	got := goldenMetrics(p)
	for k, want := range goldenWant {
		if got[k] != want {
			t.Errorf("%s:\n  got:  %s\n  want: %s", k, got[k], want)
		}
	}
}

// TestHierarchicalStridedReadBackVerifies writes the fat-node sweep's
// strided workload through the two-level protocol and verifies every
// rank's slivers byte-for-byte — the root-level read-back proof that the
// two-level exchange delivers exactly the flat protocol's bytes.
func TestHierarchicalStridedReadBackVerifies(t *testing.T) {
	p := experiments.BenchPreset()
	for _, intra := range []bool{false, true} {
		p.Cluster.PEsPerNode = 8
		lcfg := p.Lustre
		lcfg.CostScale = 1
		env := workload.Env{
			FS:     lustre.NewFS(lcfg),
			Stripe: storage.Stripe{Count: p.StripeCount, Size: 4096},
		}
		env.Opts.Hints.CBNodes = 2
		env.Opts.Hints.CBBufferSize = 1024
		env.Opts.Hints.IntraNode = intra
		w := workload.IOR{Block: 4096, Transfer: 64, Strided: true}
		mpi.Run(64, p.Cluster, p.Seed, func(r *mpi.Rank) {
			w.Write(r, env, "strided")
			if err := w.Check(r, env, "strided"); err != nil {
				t.Errorf("intra=%v: %v", intra, err)
			}
		})
	}
}

// TestIntraNodeAggregationReducesExchange is the feature's acceptance test:
// on the fat-node sweep, the two-level protocol must strictly reduce both
// the obs-counted cross-node message count and the synchronization share at
// every node fatness of 8 PEs and up, and both gaps must widen
// monotonically as nodes get fatter. Byte volume is conserved — merging
// changes who crosses the NIC, never what.
func TestIntraNodeAggregationReducesExchange(t *testing.T) {
	p := experiments.BenchPreset()
	pts := p.IntraNodeSweep(64, 2, []int{2, 8, 16, 32})
	var lastMsgRatio, lastShareGap float64
	for i := 0; i < len(pts); i += 2 {
		flat, hier := pts[i], pts[i+1]
		if flat.IntraNode || !hier.IntraNode || flat.PEsPerNode != hier.PEsPerNode {
			t.Fatalf("sweep order broken at %d: %+v / %+v", i, flat, hier)
		}
		pes := flat.PEsPerNode
		if hier.InterMsgs >= flat.InterMsgs {
			t.Errorf("pes=%d: cross-node messages did not drop: flat %d, two-level %d",
				pes, flat.InterMsgs, hier.InterMsgs)
		}
		if hier.InterBytes != flat.InterBytes {
			t.Errorf("pes=%d: cross-node bytes changed: flat %d, two-level %d — merging must conserve payload",
				pes, flat.InterBytes, hier.InterBytes)
		}
		msgRatio := float64(flat.InterMsgs) / float64(hier.InterMsgs)
		shareGap := flat.SyncShare() - hier.SyncShare()
		if pes >= 8 {
			if hier.SyncShare() >= flat.SyncShare() {
				t.Errorf("pes=%d: sync share did not drop: flat %v, two-level %v",
					pes, flat.SyncShare(), hier.SyncShare())
			}
			if hier.Breakdown.Sync >= flat.Breakdown.Sync {
				t.Errorf("pes=%d: sync seconds did not drop: flat %v, two-level %v",
					pes, flat.Breakdown.Sync, hier.Breakdown.Sync)
			}
			if hier.Elapsed >= flat.Elapsed {
				t.Errorf("pes=%d: elapsed did not drop: flat %v, two-level %v",
					pes, flat.Elapsed, hier.Elapsed)
			}
		}
		if msgRatio <= lastMsgRatio {
			t.Errorf("pes=%d: message-reduction ratio %.2f did not widen over %.2f",
				pes, msgRatio, lastMsgRatio)
		}
		if pes >= 8 && shareGap <= lastShareGap {
			t.Errorf("pes=%d: sync-share gap %v did not widen over %v", pes, shareGap, lastShareGap)
		}
		lastMsgRatio, lastShareGap = msgRatio, shareGap
	}
}
