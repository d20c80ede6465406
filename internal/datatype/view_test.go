package datatype

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWholeFileView(t *testing.T) {
	v := WholeFile()
	if !v.IsContiguous() {
		t.Fatal("whole-file view must be contiguous")
	}
	got := v.Map(100, 50)
	want := []Segment{{100, 50}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Map = %v want %v", got, want)
	}
}

func TestViewWithDisp(t *testing.T) {
	v := View{Disp: 1000, Filetype: Contig(64)}
	got := v.Map(10, 20)
	want := []Segment{{1010, 20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Map = %v want %v", got, want)
	}
}

func TestViewVectorTiling(t *testing.T) {
	// Filetype: 4 data bytes then 4-byte hole, extent 8 via vector trick:
	// one block of 4 at stride 8 has extent 4 — use a 2-block vector and
	// take only the first tile's worth to exercise tiling instead.
	ft := NewVector(2, 4, 8) // data at [0,4) and [8,12), extent 12, size 8
	v := View{Disp: 0, Filetype: ft}
	// Logical [0,8) covers exactly one tile.
	if got, want := v.Map(0, 8), []Segment{{0, 4}, {8, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("tile0 = %v want %v", got, want)
	}
	// Logical [8,16) is the second tile, shifted by extent 12.
	if got, want := v.Map(8, 8), []Segment{{12, 4}, {20, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("tile1 = %v want %v", got, want)
	}
	// Straddling: logical [6,10) = last 2 bytes of tile0's 2nd block plus
	// the first 2 of tile1; the physical pieces touch and coalesce.
	if got, want := v.Map(6, 4), []Segment{{10, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("straddle = %v want %v", got, want)
	}
}

func TestViewMapMidSegmentStart(t *testing.T) {
	ft := NewIndexed([]Segment{{0, 10}, {20, 10}})
	v := View{Disp: 5, Filetype: ft}
	// Logical offset 12 is 2 bytes into the second block.
	got := v.Map(12, 5)
	want := []Segment{{27, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Map = %v want %v", got, want)
	}
}

// Property: Map is measure-preserving (total mapped length == requested),
// returns sorted non-overlapping segments, and adjacent logical ranges map
// to disjoint physical bytes that concatenate to the same result.
func TestViewMapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ft := randomType(rng)
		if ft.Size() == 0 {
			return true
		}
		v := View{Disp: rng.Int63n(100), Filetype: ft}
		total := ft.Size()*3 + rng.Int63n(ft.Size())
		// Split the logical range at a random point; the union of the two
		// maps must equal the map of the whole.
		cut := rng.Int63n(total + 1)
		whole := v.Map(0, total)
		left := v.Map(0, cut)
		right := v.Map(cut, total-cut)
		merged := Coalesce(append(append([]Segment{}, left...), right...))
		if !reflect.DeepEqual(whole, merged) {
			return false
		}
		var n int64
		for i, s := range whole {
			n += s.Len
			if i > 0 && s.Off <= whole[i-1].End()-1 && s.Off < whole[i-1].End() {
				return false
			}
		}
		return n == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
