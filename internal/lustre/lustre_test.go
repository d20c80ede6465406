package lustre

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// pageSize mirrors the byte store's page granularity, now owned by the
// storage package.
const pageSize = storage.PageSize

func smallStripe() storage.Stripe { return storage.Stripe{Count: 4, Size: 1024} }

func runFS(t *testing.T, nprocs int, body func(r *mpi.Rank, fs *FS)) float64 {
	t.Helper()
	fs := NewFS(DefaultConfig())
	return mpi.Run(nprocs, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		body(r, fs)
	})
}

func TestReadAfterWrite(t *testing.T) {
	runFS(t, 1, func(r *mpi.Rank, fs *FS) {
		f := fs.Open(r, "a", smallStripe())
		data := []byte("hello parallel world")
		storage.Write(r, f, 100, data)
		got := storage.Read(r, f, 100, int64(len(data)))
		if !bytes.Equal(got, data) {
			t.Errorf("read %q want %q", got, data)
		}
		if f.Size() != 100+int64(len(data)) {
			t.Errorf("size = %d", f.Size())
		}
	})
}

func TestUnwrittenReadsZero(t *testing.T) {
	runFS(t, 1, func(r *mpi.Rank, fs *FS) {
		f := fs.Open(r, "z", smallStripe())
		storage.Write(r, f, 10, []byte{1, 2, 3})
		got := storage.Read(r, f, 0, 15)
		want := make([]byte, 15)
		copy(want[10:], []byte{1, 2, 3})
		if !bytes.Equal(got, want) {
			t.Errorf("read %v want %v", got, want)
		}
	})
}

func TestCrossPageWrite(t *testing.T) {
	runFS(t, 1, func(r *mpi.Rank, fs *FS) {
		f := fs.Open(r, "big", storage.Stripe{Count: 2, Size: 1 << 20})
		data := make([]byte, 3*pageSize+17)
		for i := range data {
			data[i] = byte(i * 7)
		}
		off := int64(pageSize - 5)
		storage.Write(r, f, off, data)
		if got := storage.Read(r, f, off, int64(len(data))); !bytes.Equal(got, data) {
			t.Error("cross-page read-after-write mismatch")
		}
	})
}

func TestIOTakesTime(t *testing.T) {
	end := runFS(t, 1, func(r *mpi.Rank, fs *FS) {
		f := fs.Open(r, "t", smallStripe())
		t0 := r.Now()
		storage.Write(r, f, 0, make([]byte, 1<<20))
		if r.Now() <= t0 {
			t.Error("write advanced no time")
		}
		if r.Prof().Times[mpi.ClassIO] <= 0 {
			t.Error("no io time charged")
		}
	})
	if end <= 0 {
		t.Error("zero end time")
	}
}

func TestOSTContentionSlowsSharedTarget(t *testing.T) {
	// Two ranks writing to disjoint stripe units on the SAME OST must take
	// about twice as long as two ranks hitting different OSTs.
	elapsed := func(stripeCount int) float64 {
		var worst float64
		fs := NewFS(DefaultConfig())
		mpi.Run(2, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			f := fs.Open(r, "c", storage.Stripe{Count: stripeCount, Size: 1 << 20})
			t0 := r.Now()
			// stripeCount=1: both units on OST 0. stripeCount=2: units 0,1
			// land on different OSTs.
			storage.Write(r, f, int64(r.WorldRank())<<20, make([]byte, 1<<20))
			if d := r.Now() - t0; d > worst {
				worst = d
			}
		})
		return worst
	}
	shared, separate := elapsed(1), elapsed(2)
	if shared < separate*1.5 {
		t.Errorf("no OST contention: shared %g vs separate %g", shared, separate)
	}
}

func TestPerRequestOverheadPenalizesSmallIO(t *testing.T) {
	// Writing 1 MB as 256 small requests must cost far more than one
	// request, because of the per-RPC overhead — the effect that makes
	// over-partitioned ParColl groups lose (paper Figure 7).
	duration := func(requests int) float64 {
		var d float64
		fs := NewFS(DefaultConfig())
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			f := fs.Open(r, "s", storage.Stripe{Count: 1, Size: 4 << 20})
			t0 := r.Now()
			sz := (1 << 20) / requests
			for i := 0; i < requests; i++ {
				storage.Write(r, f, int64(i*sz), make([]byte, sz))
			}
			d = r.Now() - t0
		})
		return d
	}
	one, many := duration(1), duration(256)
	if many < one*10 {
		t.Errorf("small requests not penalized: 1 req %g vs 256 reqs %g", one, many)
	}
}

func TestStripeDistribution(t *testing.T) {
	// A full-stripe write must touch exactly stripe.Count OSTs.
	fs := NewFS(DefaultConfig())
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		st := storage.Stripe{Count: 8, Size: 1024}
		f := fs.Open(r, "d", st)
		storage.Write(r, f, 0, make([]byte, 8*1024))
	})
	var active int
	for i, st := range fs.Stats() {
		if st.BusySecs > 0 {
			active++
			if i >= 8 {
				t.Errorf("OST %d active outside stripe window", i)
			}
		}
	}
	if active != 8 {
		t.Errorf("%d OSTs active, want 8", active)
	}
}

func TestCostScale(t *testing.T) {
	dur := func(scale float64) float64 {
		cfg := DefaultConfig()
		cfg.CostScale = scale
		fs := NewFS(cfg)
		var d float64
		mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			f := fs.Open(r, "x", storage.Stripe{Count: 4, Size: 4 << 20})
			t0 := r.Now()
			storage.Write(r, f, 0, make([]byte, 1<<20)) // one chunk: bandwidth-dominated
			d = r.Now() - t0
		})
		return d
	}
	if a, b := dur(1), dur(64); b < a*4 {
		t.Errorf("cost scale ineffective: scale1 %g scale64 %g", a, b)
	}
}

func TestConcurrentDisjointWritersCorrectness(t *testing.T) {
	const n = 8
	const chunk = 2048
	fs := NewFS(DefaultConfig())
	mpi.Run(n, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		f := fs.Open(r, "shared", smallStripe())
		data := bytes.Repeat([]byte{byte(r.WorldRank() + 1)}, chunk)
		storage.Write(r, f, int64(r.WorldRank())*chunk, data)
		mpi.WorldComm(r).Barrier()
		if r.WorldRank() == 0 {
			got := f.Contents()
			for i := 0; i < n; i++ {
				seg := got[i*chunk : (i+1)*chunk]
				for _, b := range seg {
					if b != byte(i+1) {
						t.Fatalf("writer %d data corrupted", i)
					}
				}
			}
		}
	})
}

// Property: random interleaved writes from several ranks to disjoint
// regions always read back exactly.
func TestRandomDisjointWritesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 4
		region := int64(4096)
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = make([]byte, rng.Int63n(region-1)+1)
			rng.Read(bufs[i])
		}
		okc := make(chan bool, n)
		fs := NewFS(DefaultConfig())
		mpi.Run(n, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			me := r.WorldRank()
			file := fs.Open(r, "p", storage.Stripe{Count: 3, Size: 512})
			base := int64(me) * region
			// Write in random-sized pieces.
			data := bufs[me]
			var off int64
			for off < int64(len(data)) {
				l := int64(r.P.Rand().Intn(1024) + 1)
				if off+l > int64(len(data)) {
					l = int64(len(data)) - off
				}
				storage.Write(r, file, base+off, data[off:off+l])
				off += l
			}
			mpi.WorldComm(r).Barrier()
			got := storage.Read(r, file, base, int64(len(data)))
			okc <- bytes.Equal(got, data)
		})
		for i := 0; i < n; i++ {
			if !<-okc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOpenSerializesOnMDS(t *testing.T) {
	const n = 32
	var latest float64
	fs := NewFS(DefaultConfig())
	mpi.Run(n, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		fs.Open(r, fmt.Sprintf("f%d", r.WorldRank()), smallStripe())
		if r.Now() > latest {
			latest = r.Now()
		}
	})
	if min := DefaultConfig().OpenCost * n; latest < min*0.99 {
		t.Errorf("opens did not serialize: latest %g < %g", latest, min)
	}
}

func TestInvalidStripePanics(t *testing.T) {
	fs := NewFS(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		fs.Open(r, "bad", storage.Stripe{Count: 0, Size: 0})
	})
}

func TestClientSwitchPenalty(t *testing.T) {
	// Interleaving two clients on one OST must cost more than one client
	// writing the same volume alone.
	duration := func(interleave bool) float64 {
		cfg := DefaultConfig()
		cfg.Jitter = 0
		cfg.TailProb = 0
		fs := NewFS(cfg)
		var worst float64
		mpi.Run(2, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
			f := fs.Open(r, "sw", storage.Stripe{Count: 1, Size: 1 << 20})
			if !interleave && r.WorldRank() == 1 {
				return
			}
			t0 := r.Now()
			n := 16
			if !interleave {
				n = 32 // same total request count from one client
			}
			for i := 0; i < n; i++ {
				off := int64(i*2+r.WorldRank()) * 4096
				storage.Write(r, f, off, make([]byte, 4096))
			}
			if d := r.Now() - t0; d > worst {
				worst = d
			}
		})
		return worst
	}
	alone, interleaved := duration(false), duration(true)
	if interleaved <= alone {
		t.Errorf("client interleaving not penalized: alone %g vs interleaved %g", alone, interleaved)
	}
}

func TestTailEventsOccur(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jitter = 0
	cfg.SwitchPenalty = 0
	cfg.TailProb = 0.5
	cfg.TailPenalty = 1.0 // huge, unmistakable
	fs := NewFS(cfg)
	var d float64
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		f := fs.Open(r, "tail", storage.Stripe{Count: 8, Size: 4096})
		t0 := r.Now()
		for i := 0; i < 16; i++ {
			storage.Write(r, f, int64(i)*4096, make([]byte, 4096))
		}
		d = r.Now() - t0
	})
	if d < 1.0 {
		t.Errorf("no tail events in 16 requests at p=0.5: elapsed %g", d)
	}
}

func TestNoiseDeterminism(t *testing.T) {
	run := func() float64 {
		fs := NewFS(DefaultConfig())
		var d float64
		mpi.Run(4, cluster.DefaultConfig(), 7, func(r *mpi.Rank) {
			f := fs.Open(r, "det", smallStripe())
			storage.Write(r, f, int64(r.WorldRank())*8192, make([]byte, 8192))
			if v := mpi.WorldComm(r).MaxFinishTime(); r.WorldRank() == 0 {
				d = v
			}
		})
		return d
	}
	if a, b := run(), run(); a != b {
		t.Errorf("noisy runs not deterministic: %g vs %g", a, b)
	}
}

func TestOSTStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TailProb = 1 // every request tails
	fs := NewFS(cfg)
	mpi.Run(2, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		f := fs.Open(r, "st", storage.Stripe{Count: 1, Size: 1 << 20})
		storage.Write(r, f, int64(r.WorldRank())*4096, make([]byte, 4096))
	})
	st := fs.Stats()[0]
	if st.Requests != 2 || st.Bytes != 8192 {
		t.Errorf("requests/bytes = %d/%d", st.Requests, st.Bytes)
	}
	if st.Switches != 1 {
		t.Errorf("switches = %d want 1", st.Switches)
	}
	if st.Tails != 2 {
		t.Errorf("tails = %d want 2", st.Tails)
	}
	if st.BusySecs <= 0 {
		t.Error("busy seconds not recorded")
	}
}
