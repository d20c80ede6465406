package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Sieving correctness, stated as a property: for any non-contiguous layout,
// any pre-existing file contents, and any sieve buffer size, the
// read-modify-write path (WriteAtSieved) must leave the file byte-identical
// to the naive per-segment path (WriteAt), and ReadAtSieved must return the
// same bytes ReadAt does. Sieving may only change *when* bytes move, never
// *which* bytes.

// randomSieveSegs cuts a file region into slots and claims a random
// sub-extent of each with probability 1/2 — sometimes dense (windows pack),
// sometimes sparse (density cutoff splits them), always sorted and disjoint.
func randomSieveSegs(rng *rand.Rand) []datatype.Segment {
	slotSize := int64(rng.Intn(400) + 40)
	slots := rng.Intn(24) + 2
	var segs []datatype.Segment
	for s := 0; s < slots; s++ {
		if rng.Intn(2) == 0 {
			continue
		}
		off := int64(s)*slotSize + rng.Int63n(slotSize/4+1)
		ln := rng.Int63n(slotSize/2) + 1
		segs = append(segs, datatype.Segment{Off: off, Len: ln})
	}
	if len(segs) == 0 {
		segs = []datatype.Segment{{Off: 0, Len: 1}}
	}
	return segs
}

// checkSieveRMW runs one sieved-vs-naive comparison and reports the first
// divergence. Both file systems start with identical random junk covering
// the layout, so clobbered holes show up as content differences.
func checkSieveRMW(seed int64, sieveBuf int64) error {
	rng := rand.New(rand.NewSource(seed))
	segs := randomSieveSegs(rng)
	ft := datatype.NewIndexed(segs)
	disp := rng.Int63n(200)
	view := datatype.View{Disp: disp, Filetype: ft}
	payload := make([]byte, ft.Size())
	rng.Read(payload)
	extent := disp + segs[len(segs)-1].End() + rng.Int63n(100)
	junk := make([]byte, extent)
	rng.Read(junk)
	stripe := storage.Stripe{Count: 3, Size: 509}
	hints := Hints{IndBufferSize: sieveBuf}

	write := func(sieved bool) ([]byte, []byte, error) {
		fs := lustre.NewFS(lustre.DefaultConfig())
		var got []byte
		var readBack []byte
		mpi.Run(1, cluster.DefaultConfig(), seed, func(r *mpi.Rank) {
			f := Open(mpi.WorldComm(r), fs, "sv", stripe, hints)
			storage.Write(r, f.Storage(), 0, junk) // pre-existing contents
			f.SetView(view)
			if sieved {
				f.WriteAtSieved(0, payload)
				readBack = f.ReadAtSieved(0, ft.Size())
			} else {
				f.WriteAt(0, payload)
				readBack = f.ReadAt(0, ft.Size())
			}
			got = storage.Read(r, f.Storage(), 0, extent)
		})
		return got, readBack, nil
	}
	sv, svRead, _ := write(true)
	nv, nvRead, _ := write(false)
	if !bytes.Equal(sv, nv) {
		for i := range sv {
			if sv[i] != nv[i] {
				return fmt.Errorf("seed %d buf %d: file byte %d differs: sieved %#x naive %#x",
					seed, sieveBuf, i, sv[i], nv[i])
			}
		}
		return fmt.Errorf("seed %d buf %d: file lengths differ: %d vs %d", seed, sieveBuf, len(sv), len(nv))
	}
	if !bytes.Equal(svRead, nvRead) {
		return fmt.Errorf("seed %d buf %d: sieved read diverges from naive read", seed, sieveBuf)
	}
	if !bytes.Equal(svRead, payload) {
		return fmt.Errorf("seed %d buf %d: read-back is not the written payload", seed, sieveBuf)
	}
	return nil
}

// TestSieveRMWMatchesNaiveProperty drives random layouts, contents, and
// buffer sizes through checkSieveRMW.
func TestSieveRMWMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		bufs := []int64{0, 128, 997, 1 << 14} // 0 = ROMIO default
		if err := checkSieveRMW(seed, bufs[int(uint64(seed)%uint64(len(bufs)))]); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// FuzzSieve is the native fuzz form: the fuzzer picks the layout seed and
// the sieve buffer size, including degenerate tiny buffers where every
// window is a single segment. `go test` runs the corpus; `make fuzz`
// explores. Invariant: checkSieveRMW finds no divergence and nothing panics.
func FuzzSieve(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(42), uint16(128))
	f.Add(int64(-3), uint16(4096))
	f.Add(int64(7777), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, buf uint16) {
		if err := checkSieveRMW(seed, int64(buf)); err != nil {
			t.Error(err)
		}
	})
}
