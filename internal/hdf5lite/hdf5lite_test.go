package hdf5lite

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lustre"
	"repro/internal/mpi"
	"repro/internal/storage"
)

func testStripe() storage.Stripe { return storage.Stripe{Count: 4, Size: 4096} }

func TestHeaderRoundTrip(t *testing.T) {
	specs := []Spec{{"alpha", 1000}, {"beta", 2000}}
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(2, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		cf := core.Open(mpi.WorldComm(r), fs, "h", testStripe(), core.Options{})
		h := Create(cf, r.WorldRank() == 0, specs)
		a := h.Dataset("alpha")
		b := h.Dataset("beta")
		if a.Base != HeaderBytes(2) {
			t.Errorf("alpha base = %d want %d", a.Base, HeaderBytes(2))
		}
		if b.Base <= a.Base+a.Total-1 {
			t.Errorf("beta base %d overlaps alpha", b.Base)
		}
		if b.Base%4096 != 0 {
			t.Errorf("beta base %d not aligned", b.Base)
		}
	})
	var raw []byte
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		raw = storage.Read(r, fs.Open(r, "h", testStripe()), 0, HeaderBytes(2))
	})
	ds, attrs, err := ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 0 {
		t.Errorf("unexpected attrs %v", attrs)
	}
	if len(ds) != 2 || ds[0].Name != "alpha" || ds[1].Name != "beta" ||
		ds[0].Total != 1000 || ds[1].Total != 2000 {
		t.Errorf("parsed %+v", ds)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, _, err := ParseHeader([]byte("not a header at all....")); err == nil {
		t.Error("bad magic accepted")
	}
	short := append([]byte{}, Magic[:]...)
	short = append(short, 9, 0, 0, 0, 0, 0, 0, 0) // claims 9 datasets, no records
	if _, _, err := ParseHeader(short); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestDatasetWriteReadCollective(t *testing.T) {
	const n = 4
	const per = 2500
	fs := lustre.NewFS(lustre.DefaultConfig())
	mpi.Run(n, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		cf := core.Open(comm, fs, "d", testStripe(), core.Options{NumGroups: 2})
		h := Create(cf, r.WorldRank() == 0, []Spec{{"data", per * n}})
		me := r.WorldRank()
		buf := make([]byte, per)
		for i := range buf {
			buf[i] = byte(me*7 + i)
		}
		h.WriteAll("data", int64(me)*per, buf)
		comm.Barrier()
		got := h.ReadAll("data", int64(me)*per, per)
		if !bytes.Equal(got, buf) {
			t.Errorf("rank %d dataset read-back mismatch", me)
		}
	})
}

func TestUnknownDatasetPanics(t *testing.T) {
	fs := lustre.NewFS(lustre.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		cf := core.Open(mpi.WorldComm(r), fs, "u", testStripe(), core.Options{})
		h := Create(cf, true, []Spec{{"x", 10}})
		h.Dataset("nope")
	})
}

func TestWriteBeyondDatasetPanics(t *testing.T) {
	fs := lustre.NewFS(lustre.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		cf := core.Open(mpi.WorldComm(r), fs, "w", testStripe(), core.Options{})
		h := Create(cf, true, []Spec{{"x", 10}})
		h.WriteAll("x", 5, make([]byte, 10))
	})
}

func TestHeaderBytesAlignment(t *testing.T) {
	for _, n := range []int{0, 1, 24, 200} {
		hb := HeaderBytes(n)
		if hb%4096 != 0 {
			t.Errorf("HeaderBytes(%d) = %d not aligned", n, hb)
		}
		if hb < int64(12+n*dsRecLen) {
			t.Errorf("HeaderBytes(%d) = %d too small", n, hb)
		}
	}
}

func TestAttributesRoundTrip(t *testing.T) {
	fs := lustre.NewFS(lustre.DefaultConfig())
	attrs := map[string]string{"step": "42", "time": "1.25", "code": "flash"}
	mpi.Run(2, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		cf := core.Open(mpi.WorldComm(r), fs, "at", testStripe(), core.Options{})
		h := CreateWithAttrs(cf, r.WorldRank() == 0, []Spec{{"d", 100}}, attrs)
		if h.Attr("step") != "42" {
			t.Errorf("Attr(step) = %q", h.Attr("step"))
		}
	})
	var raw []byte
	mpi.Run(1, cluster.DefaultConfig(), 1, func(r *mpi.Rank) {
		raw = storage.Read(r, fs.Open(r, "at", testStripe()), 0, HeaderBytesAttrs(1, attrs))
	})
	_, got, err := ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range attrs {
		if got[k] != v {
			t.Errorf("attr %q = %q want %q", k, got[k], v)
		}
	}
}
