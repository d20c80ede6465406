package bb

import (
	"sort"
	"testing"

	"repro/internal/storage"
)

// The burst buffer's dirty-extent merge and residency probe are
// storage.Coalesce and storage.Covered; these cases pin the shapes the
// staging tier feeds them.

func TestCoalesce(t *testing.T) {
	cases := []struct {
		name string
		in   []storage.Extent
		want []storage.Extent
	}{
		{"empty", nil, nil},
		{"one", []storage.Extent{{Off: 5, Len: 3}}, []storage.Extent{{Off: 5, Len: 3}}},
		{"adjacent", []storage.Extent{{Off: 0, Len: 4}, {Off: 4, Len: 4}}, []storage.Extent{{Off: 0, Len: 8}}},
		{"overlap", []storage.Extent{{Off: 0, Len: 6}, {Off: 4, Len: 4}}, []storage.Extent{{Off: 0, Len: 8}}},
		{"contained", []storage.Extent{{Off: 0, Len: 10}, {Off: 2, Len: 3}}, []storage.Extent{{Off: 0, Len: 10}}},
		{"gap", []storage.Extent{{Off: 0, Len: 2}, {Off: 5, Len: 2}}, []storage.Extent{{Off: 0, Len: 2}, {Off: 5, Len: 2}}},
		{"unsorted", []storage.Extent{{Off: 8, Len: 2}, {Off: 0, Len: 2}, {Off: 2, Len: 6}}, []storage.Extent{{Off: 0, Len: 10}}},
		{"zero-len-dropped", []storage.Extent{{Off: 3, Len: 0}, {Off: 1, Len: 2}}, []storage.Extent{{Off: 1, Len: 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := storage.Coalesce(c.in)
			if len(got) != len(c.want) {
				t.Fatalf("Coalesce(%v) = %v, want %v", c.in, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("Coalesce(%v) = %v, want %v", c.in, got, c.want)
				}
			}
		})
	}
}

func TestCovered(t *testing.T) {
	dirty := storage.Coalesce([]storage.Extent{{Off: 0, Len: 10}, {Off: 20, Len: 5}})
	for _, c := range []struct {
		off, n int64
		want   bool
	}{
		{0, 10, true}, {3, 4, true}, {20, 5, true}, {24, 1, true},
		{0, 11, false}, {9, 2, false}, {15, 2, false}, {19, 3, false}, {25, 1, false},
		{5, 0, true}, // empty window is trivially covered
	} {
		if got := storage.Covered(dirty, c.off, c.n); got != c.want {
			t.Errorf("Covered(%v, %d, %d) = %v, want %v", dirty, c.off, c.n, got, c.want)
		}
	}
}

// FuzzExtentCoalesce checks the dirty-extent merge invariants on arbitrary
// extent soups: output sorted, strictly disjoint and non-adjacent, total
// coverage equal to the input's union, and every input byte covered.
func FuzzExtentCoalesce(f *testing.F) {
	f.Add([]byte{0, 4, 4, 4, 2, 6})
	f.Add([]byte{10, 1, 0, 1, 5, 5, 5, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var in []storage.Extent
		for i := 0; i+1 < len(raw); i += 2 {
			in = append(in, storage.Extent{Off: int64(raw[i]), Len: int64(raw[i+1] % 32)})
		}
		out := storage.Coalesce(in)
		for i, e := range out {
			if e.Len <= 0 {
				t.Fatalf("output extent %d has Len %d", i, e.Len)
			}
			if i > 0 && out[i-1].End() >= e.Off {
				t.Fatalf("output not disjoint/non-adjacent: %v then %v", out[i-1], e)
			}
		}
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Off < out[j].Off }) {
			t.Fatalf("output not sorted: %v", out)
		}
		// Byte-set equality with the input union, on the small fuzzed domain.
		inSet := make(map[int64]bool)
		for _, e := range in {
			for o := e.Off; o < e.End(); o++ {
				inSet[o] = true
			}
		}
		var outBytes int64
		for _, e := range out {
			outBytes += e.Len
			for o := e.Off; o < e.End(); o++ {
				if !inSet[o] {
					t.Fatalf("output covers byte %d the input never wrote", o)
				}
			}
		}
		if int64(len(inSet)) != outBytes {
			t.Fatalf("coverage mismatch: input union %d bytes, output %d", len(inSet), outBytes)
		}
	})
}
