package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// testSizes covers powers of two, non-powers, and degenerate groups.
var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 17}

func runWorld(t *testing.T, n int, body func(c *Comm)) {
	t.Helper()
	Run(n, cluster.DefaultConfig(), 1, func(r *Rank) {
		body(WorldComm(r))
	})
}

func TestSendRecvRoundTrip(t *testing.T) {
	runWorld(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, []byte("ping"))
			data, st := c.Recv(1, 6)
			if string(data) != "pong" || st.Source != 1 {
				t.Errorf("rank0 got %q from %d", data, st.Source)
			}
		case 1:
			data, _ := c.Recv(0, 5)
			if string(data) != "ping" {
				t.Errorf("rank1 got %q", data)
			}
			c.Send(0, 6, []byte("pong"))
		}
	})
}

// TestSendTransfersOwnership pins the zero-copy convention: Send hands the
// caller's buffer to the receiver without a defensive copy, so the receiver
// sees the very same backing array.
func TestSendTransfersOwnership(t *testing.T) {
	probe := []byte("aaaa")
	runWorld(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, probe)
		} else {
			data, _ := c.Recv(0, 1)
			if string(data) != "aaaa" {
				t.Errorf("payload corrupted: got %q", data)
			}
			if len(data) > 0 && &data[0] != &probe[0] {
				t.Error("Send copied the payload; expected ownership transfer of the same buffer")
			}
		}
	})
}

func TestSendrecvNoDeadlock(t *testing.T) {
	runWorld(t, 4, func(c *Comm) {
		right := (c.Rank() + 1) % 4
		left := (c.Rank() + 3) % 4
		data, st := c.Sendrecv(right, []byte{byte(c.Rank())}, left, 9)
		if st.Source != left || data[0] != byte(left) {
			t.Errorf("rank %d sendrecv got %v from %d", c.Rank(), data, st.Source)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range testSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			after := make([]float64, n)
			runWorld(t, n, func(c *Comm) {
				// Rank i does i ms of work; after the barrier, every
				// clock must be >= the slowest rank's pre-barrier time.
				c.r.Compute(float64(c.Rank()) * 1e-3)
				c.Barrier()
				after[c.Rank()] = c.r.Now()
			})
			slowest := float64(n-1) * 1e-3
			for i, ts := range after {
				if ts < slowest {
					t.Errorf("rank %d passed barrier at %g, before slowest rank's %g", i, ts, slowest)
				}
			}
		})
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, n := range testSizes {
		for root := 0; root < n; root += 1 + n/3 {
			n, root := n, root
			t.Run(fmt.Sprintf("n%d root%d", n, root), func(t *testing.T) {
				msg := []byte(fmt.Sprintf("payload-from-%d", root))
				runWorld(t, n, func(c *Comm) {
					var in []byte
					if c.Rank() == root {
						in = msg
					}
					out := c.Bcast(root, in)
					if !bytes.Equal(out, msg) {
						t.Errorf("rank %d bcast got %q want %q", c.Rank(), out, msg)
					}
				})
			})
		}
	}
}

func TestGather(t *testing.T) {
	for _, n := range testSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runWorld(t, n, func(c *Comm) {
				root := n / 2
				mine := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
				got := c.Gather(root, mine)
				if c.Rank() == root {
					for i, b := range got {
						want := bytes.Repeat([]byte{byte(i)}, i+1)
						if !bytes.Equal(b, want) {
							t.Errorf("gather[%d] = %v want %v", i, b, want)
						}
					}
				} else if got != nil {
					t.Errorf("rank %d: non-root gather returned %v", c.Rank(), got)
				}
			})
		})
	}
}

func TestAllgatherVariableSizes(t *testing.T) {
	for _, n := range testSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runWorld(t, n, func(c *Comm) {
				mine := bytes.Repeat([]byte{byte(c.Rank() + 1)}, (c.Rank()%3)+1)
				all := c.Allgather(mine)
				if len(all) != n {
					t.Fatalf("allgather returned %d blocks", len(all))
				}
				for i, b := range all {
					want := bytes.Repeat([]byte{byte(i + 1)}, (i%3)+1)
					if !bytes.Equal(b, want) {
						t.Errorf("rank %d allgather[%d] = %v want %v", c.Rank(), i, b, want)
					}
				}
			})
		})
	}
}

func TestAlltoallAllSizes(t *testing.T) {
	for _, n := range testSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runWorld(t, n, func(c *Comm) {
				blocks := make([][]byte, n)
				for dst := range blocks {
					blocks[dst] = []byte(fmt.Sprintf("%d->%d", c.Rank(), dst))
				}
				got := c.Alltoall(blocks)
				for src, b := range got {
					want := fmt.Sprintf("%d->%d", src, c.Rank())
					if string(b) != want {
						t.Errorf("rank %d alltoall[%d] = %q want %q", c.Rank(), src, b, want)
					}
				}
			})
		})
	}
}

func TestAlltoallvBothAlgos(t *testing.T) {
	for _, algo := range []AlltoallvAlgo{AlltoallvDirect, AlltoallvPairwise} {
		for _, n := range []int{1, 2, 4, 7, 9} {
			algo, n := algo, n
			t.Run(fmt.Sprintf("algo%d n%d", algo, n), func(t *testing.T) {
				runWorld(t, n, func(c *Comm) {
					// Sparse pattern: rank r sends to dst only when
					// (r+dst) is even; payload identifies the pair.
					send := make([][]byte, n)
					for dst := 0; dst < n; dst++ {
						if (c.Rank()+dst)%2 == 0 {
							send[dst] = []byte(fmt.Sprintf("v%d.%d", c.Rank(), dst))
						}
					}
					got := c.Alltoallv(send, algo)
					for src := 0; src < n; src++ {
						want := ""
						if (src+c.Rank())%2 == 0 {
							want = fmt.Sprintf("v%d.%d", src, c.Rank())
						}
						if string(got[src]) != want {
							t.Errorf("rank %d from %d: got %q want %q", c.Rank(), src, got[src], want)
						}
					}
				})
			})
		}
	}
}

// TestConsecutiveWildcardCollectives guards the tag-sequencing fix: two
// back-to-back Alltoallv calls must not steal each other's messages even
// though receives use AnySource.
func TestConsecutiveWildcardCollectives(t *testing.T) {
	runWorld(t, 5, func(c *Comm) {
		for round := 0; round < 4; round++ {
			send := make([][]byte, 5)
			for dst := 0; dst < 5; dst++ {
				if (c.Rank()+dst+round)%2 == 0 {
					send[dst] = []byte(fmt.Sprintf("r%d-%d-%d", round, c.Rank(), dst))
				}
			}
			// Skew: make some ranks slow so calls overlap in virtual time.
			if c.Rank() == round%5 {
				c.r.Compute(1e-2)
			}
			got := c.Alltoallv(send, AlltoallvDirect)
			for src := 0; src < 5; src++ {
				want := ""
				if (src+c.Rank()+round)%2 == 0 {
					want = fmt.Sprintf("r%d-%d-%d", round, src, c.Rank())
				}
				if string(got[src]) != want {
					t.Fatalf("round %d rank %d from %d: got %q want %q",
						round, c.Rank(), src, got[src], want)
				}
			}
		}
	})
}

func TestReduceAllreduceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range testSizes {
		for _, op := range []Op{OpSum, OpMax, OpMin} {
			n, op := n, op
			t.Run(fmt.Sprintf("n%d op%d", n, op), func(t *testing.T) {
				const width = 5
				inputs := make([][]int64, n)
				for i := range inputs {
					inputs[i] = make([]int64, width)
					for j := range inputs[i] {
						inputs[i][j] = int64(rng.Intn(2000) - 1000)
					}
				}
				want := append([]int64(nil), inputs[0]...)
				for i := 1; i < n; i++ {
					combineInt64(want, inputs[i], op)
				}
				runWorld(t, n, func(c *Comm) {
					got := c.AllreduceInt64(inputs[c.Rank()], op)
					for j := range got {
						if got[j] != want[j] {
							t.Errorf("rank %d allreduce[%d] = %d want %d", c.Rank(), j, got[j], want[j])
						}
					}
					red := c.ReduceInt64(2%n, inputs[c.Rank()], op)
					if c.Rank() == 2%n {
						for j := range red {
							if red[j] != want[j] {
								t.Errorf("reduce[%d] = %d want %d", j, red[j], want[j])
							}
						}
					} else if red != nil {
						t.Errorf("non-root got reduce result")
					}
				})
			})
		}
	}
}

func TestAllreduceFloat64(t *testing.T) {
	runWorld(t, 6, func(c *Comm) {
		got := c.AllreduceFloat64([]float64{float64(c.Rank()), -float64(c.Rank())}, OpMax)
		if got[0] != 5 || got[1] != 0 {
			t.Errorf("rank %d: got %v want [5 0]", c.Rank(), got)
		}
		sum := c.AllreduceFloat64([]float64{1.5}, OpSum)
		if sum[0] != 9 {
			t.Errorf("sum = %v want 9", sum[0])
		}
	})
}

func TestCommSplit(t *testing.T) {
	runWorld(t, 8, func(c *Comm) {
		// Two groups by parity; key reverses order within the group.
		sub := c.Split(c.Rank()%2, -c.Rank())
		if sub.Size() != 4 {
			t.Fatalf("split size %d", sub.Size())
		}
		// Highest old rank gets comm rank 0 (smallest key).
		wantWorld := []int{6, 4, 2, 0}
		if c.Rank()%2 == 1 {
			wantWorld = []int{7, 5, 3, 1}
		}
		for i, w := range wantWorld {
			if sub.WorldRankOf(i) != w {
				t.Errorf("split member[%d] = %d want %d", i, sub.WorldRankOf(i), w)
			}
		}
		// The subgroup must be usable: allreduce of world ranks.
		got := sub.AllreduceInt64([]int64{int64(c.Rank())}, OpSum)
		want := int64(0 + 2 + 4 + 6)
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if got[0] != want {
			t.Errorf("subgroup allreduce = %d want %d", got[0], want)
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	runWorld(t, 4, func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = UndefinedColor
		}
		sub := c.Split(color, c.Rank())
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color should yield nil comm")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("split size = %d want 3", sub.Size())
		}
	})
}

func TestNestedSplitIsolation(t *testing.T) {
	// Messages in a child communicator must not leak into the parent.
	runWorld(t, 4, func(c *Comm) {
		sub := c.Split(c.Rank()/2, c.Rank())
		if sub.Rank() == 0 {
			sub.Send(1, 3, []byte{42})
		}
		c.Barrier()
		if sub.Rank() == 1 {
			data, _ := sub.Recv(0, 3)
			if data[0] != 42 {
				t.Errorf("sub recv got %v", data)
			}
		}
	})
}

func TestProfilingClasses(t *testing.T) {
	var prof Prof
	Run(4, cluster.DefaultConfig(), 1, func(r *Rank) {
		c := WorldComm(r)
		r.SetClass(ClassSync)
		c.Barrier()
		r.SetClass(ClassExchange)
		if r.WorldRank() == 0 {
			c.Send(1, 1, make([]byte, 1024))
		} else if r.WorldRank() == 1 {
			c.Recv(0, 1)
		}
		r.SetClass(ClassOther)
		if r.WorldRank() == 1 {
			prof = *r.Prof()
		}
	})
	if prof.Times[ClassSync] <= 0 {
		t.Error("no sync time recorded for barrier")
	}
	if prof.Times[ClassExchange] <= 0 {
		t.Error("no exchange time recorded for recv")
	}
	if prof.Times[ClassIO] != 0 {
		t.Error("io time recorded without io")
	}
}

func TestProfilingNoDoubleCount(t *testing.T) {
	// Allreduce internally runs reduce+bcast; elapsed time must be counted
	// exactly once: class time can never exceed the rank's clock.
	Run(8, cluster.DefaultConfig(), 1, func(r *Rank) {
		c := WorldComm(r)
		r.SetClass(ClassSync)
		for i := 0; i < 5; i++ {
			c.AllreduceInt64([]int64{1}, OpSum)
		}
		if got, clock := r.Prof().Total(), r.Now(); got > clock+1e-12 {
			t.Errorf("rank %d prof total %g exceeds clock %g", r.WorldRank(), got, clock)
		}
	})
}

func TestRunDeterminism(t *testing.T) {
	run := func() float64 {
		return Run(16, cluster.DefaultConfig(), 99, func(r *Rank) {
			c := WorldComm(r)
			r.Compute(r.P.Rand().Float64() * 1e-3)
			c.Barrier()
			c.AllreduceInt64([]int64{int64(r.WorldRank())}, OpSum)
			blocks := make([][]byte, c.Size())
			for i := range blocks {
				blocks[i] = make([]byte, (r.WorldRank()+i)%7)
			}
			c.Alltoall(blocks)
		})
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs differ: %g vs %g", a, b)
	}
}

func TestCollectiveCostGrowsWithGroupSize(t *testing.T) {
	cost := func(n int) float64 {
		var got float64
		Run(n, cluster.DefaultConfig(), 1, func(r *Rank) {
			c := WorldComm(r)
			t0 := r.Now()
			for i := 0; i < 10; i++ {
				c.AllreduceInt64([]int64{1}, OpSum)
			}
			if r.WorldRank() == 0 {
				got = r.Now() - t0
			}
		})
		return got
	}
	small, large := cost(4), cost(64)
	if large <= small {
		t.Errorf("allreduce cost did not grow with group size: %g (4p) vs %g (64p)", small, large)
	}
}

func TestMaxFinishTime(t *testing.T) {
	runWorld(t, 4, func(c *Comm) {
		c.r.Compute(float64(c.Rank()) * 1e-3)
		max := c.MaxFinishTime()
		if max < 3e-3 {
			t.Errorf("MaxFinishTime %g < slowest rank 3e-3", max)
		}
	})
}

func TestTagOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized tag")
		}
	}()
	runWorld(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, tagSpace+1, nil)
		} else {
			c.Recv(0, 0)
		}
	})
}

// TestConcurrentSubgroupCollectives verifies sibling communicators (same
// ctx, same collective sequence) never cross rendezvous slots.
func TestConcurrentSubgroupCollectives(t *testing.T) {
	runWorld(t, 8, func(c *Comm) {
		sub := c.Split(c.Rank()%4, c.Rank()) // 4 groups of 2
		for i := 0; i < 10; i++ {
			sum := sub.AllreduceInt64([]int64{int64(c.Rank())}, OpSum)
			want := int64(c.Rank()%4) + int64(c.Rank()%4+4)
			if sum[0] != want {
				t.Fatalf("round %d rank %d: subgroup allreduce %d want %d", i, c.Rank(), sum[0], want)
			}
			got := sub.AlltoallInts([]int{c.Rank() * 10, c.Rank() * 10})
			partner := sub.WorldRankOf(1 - sub.Rank())
			if got[1-sub.Rank()] != partner*10 {
				t.Fatalf("alltoall ints cross-group leak: %v", got)
			}
		}
	})
}

// TestRendezvousWaitsForSlowest ensures the collective blocks on the last
// arrival and everyone resumes at (or after) its arrival time.
func TestRendezvousWaitsForSlowest(t *testing.T) {
	runWorld(t, 6, func(c *Comm) {
		c.r.Compute(float64(c.Rank()) * 1e-2)
		got := c.AllreduceInt64([]int64{1}, OpSum)
		if got[0] != 6 {
			t.Fatalf("allreduce sum = %d", got[0])
		}
		if c.r.Now() < 5e-2 {
			t.Errorf("rank %d resumed at %g, before the slowest member's 0.05", c.Rank(), c.r.Now())
		}
	})
}

// TestAllgatherSharedBlocks pins the zero-copy convention: every rank sees
// the contributors' own buffers (read-only, shared), while the outer slice
// is private to each caller.
func TestAllgatherSharedBlocks(t *testing.T) {
	contrib := make([][]byte, 4)
	runWorld(t, 4, func(c *Comm) {
		mine := []byte{byte(c.Rank()), byte(c.Rank())}
		contrib[c.Rank()] = mine
		out := c.Allgather(mine)
		for src, blk := range out {
			if len(blk) != 2 || blk[0] != byte(src) || blk[1] != byte(src) {
				t.Errorf("rank %d: block %d = %v", c.Rank(), src, blk)
			}
			if &blk[0] != &contrib[src][0] {
				t.Errorf("rank %d: block %d was copied; expected the contributor's buffer shared", c.Rank(), src)
			}
		}
		out[0] = nil // the outer slice must be private to this caller
		c.Barrier()
		again := c.Allgather(mine)
		if again[0] == nil || again[0][0] != 0 {
			t.Errorf("outer slice aliased across calls: %v", again[0])
		}
	})
}

// TestAlltoallIntsMatchesMessageAlltoall cross-validates the rendezvous
// fast path against the message-based Bruck implementation.
func TestAlltoallIntsMatchesMessageAlltoall(t *testing.T) {
	for _, n := range []int{2, 5, 8, 13} {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runWorld(t, n, func(c *Comm) {
				vals := make([]int, n)
				blocks := make([][]byte, n)
				for i := range vals {
					vals[i] = c.Rank()*1000 + i
					blocks[i] = encInt64s([]int64{int64(vals[i])})
				}
				fast := c.AlltoallInts(vals)
				slow := c.Alltoall(blocks)
				for src := range fast {
					if int64(fast[src]) != decInt64s(slow[src])[0] {
						t.Fatalf("fast/slow alltoall disagree at src %d: %d vs %d",
							src, fast[src], decInt64s(slow[src])[0])
					}
				}
			})
		})
	}
}

// TestCollectiveCostScalesLogarithmically sanity-checks the analytic cost:
// quadrupling members should roughly double barrier cost, not quadruple it.
func TestCollectiveCostScalesLogarithmically(t *testing.T) {
	cost := func(n int) float64 {
		var d float64
		Run(n, cluster.DefaultConfig(), 1, func(r *Rank) {
			c := WorldComm(r)
			t0 := r.Now()
			for i := 0; i < 50; i++ {
				c.Barrier()
			}
			if r.WorldRank() == 0 {
				d = r.Now() - t0
			}
		})
		return d
	}
	c4, c16, c64 := cost(4), cost(16), cost(64)
	if c16 <= c4 || c64 <= c16 {
		t.Fatalf("barrier cost not increasing: %g %g %g", c4, c16, c64)
	}
	if c64 > c4*8 {
		t.Errorf("barrier cost grew superlogarithmically: 4p=%g 64p=%g", c4, c64)
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	rec := obs.NewRecorder()
	Run(4, cluster.DefaultConfig(), 1, func(r *Rank) {
		r.SetTracer(rec)
		c := WorldComm(r)
		r.SetClass(ClassSync)
		c.Barrier()
		r.ChargeIO(1e-3)
	})
	byKind := rec.ByKind()
	if byKind["io"] < 4e-3-1e-12 {
		t.Errorf("io spans = %g want >= 0.004", byKind["io"])
	}
	if byKind["sync"] <= 0 {
		t.Error("no sync spans recorded")
	}
}
