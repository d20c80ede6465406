package storage

import (
	"reflect"
	"testing"
)

func TestCoalesce(t *testing.T) {
	cases := []struct {
		name string
		in   []Extent
		want []Extent
	}{
		{"empty", nil, nil},
		{"zero-length-vanish", []Extent{{Off: 5, Len: 0}}, nil},
		{"single", []Extent{{Off: 3, Len: 4}}, []Extent{{Off: 3, Len: 4}}},
		{"adjacent-merge", []Extent{{Off: 0, Len: 4}, {Off: 4, Len: 4}}, []Extent{{Off: 0, Len: 8}}},
		{"overlap-merge", []Extent{{Off: 0, Len: 6}, {Off: 4, Len: 6}}, []Extent{{Off: 0, Len: 10}}},
		{"contained", []Extent{{Off: 0, Len: 10}, {Off: 2, Len: 3}}, []Extent{{Off: 0, Len: 10}}},
		{"unsorted-disjoint", []Extent{{Off: 10, Len: 2}, {Off: 0, Len: 2}}, []Extent{{Off: 0, Len: 2}, {Off: 10, Len: 2}}},
		{"sorted-gap", []Extent{{Off: 0, Len: 2}, {Off: 5, Len: 2}}, []Extent{{Off: 0, Len: 2}, {Off: 5, Len: 2}}},
		{"unsorted-chain-merge", []Extent{{Off: 8, Len: 2}, {Off: 0, Len: 2}, {Off: 2, Len: 6}}, []Extent{{Off: 0, Len: 10}}},
		{"zero-length-among-others", []Extent{{Off: 3, Len: 0}, {Off: 1, Len: 2}}, []Extent{{Off: 1, Len: 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Coalesce(c.in); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("Coalesce(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestCovered(t *testing.T) {
	exts := Coalesce([]Extent{{Off: 0, Len: 10}, {Off: 20, Len: 10}})
	cases := []struct {
		off, n int64
		want   bool
	}{
		{0, 10, true}, {2, 5, true}, {20, 10, true},
		{5, 10, false}, {8, 20, false}, {30, 1, false},
		{29, 1, true}, {9, 2, false}, {19, 2, false}, {15, 2, false},
		{15, 0, true}, // empty ranges are vacuously covered
	}
	for _, c := range cases {
		if got := Covered(exts, c.off, c.n); got != c.want {
			t.Errorf("Covered(%v, %d, %d) = %v, want %v", exts, c.off, c.n, got, c.want)
		}
	}
}

func TestIntersectSubtract(t *testing.T) {
	a := []Extent{{Off: 0, Len: 10}, {Off: 20, Len: 10}}
	b := []Extent{{Off: 5, Len: 20}}
	wantI := []Extent{{Off: 5, Len: 5}, {Off: 20, Len: 5}}
	if got := Intersect(a, b); !reflect.DeepEqual(got, wantI) {
		t.Fatalf("Intersect = %v, want %v", got, wantI)
	}
	wantS := []Extent{{Off: 0, Len: 5}, {Off: 25, Len: 5}}
	if got := Subtract(a, b); !reflect.DeepEqual(got, wantS) {
		t.Fatalf("Subtract = %v, want %v", got, wantS)
	}
	if got := Subtract(a, a); got != nil {
		t.Fatalf("Subtract(a, a) = %v, want nil", got)
	}
	if got := Intersect(a, nil); got != nil {
		t.Fatalf("Intersect(a, nil) = %v, want nil", got)
	}
}

func TestRedumpPlanPartitions(t *testing.T) {
	lost := []Extent{{Off: 100, Len: 300}}
	owned := [][]Extent{
		{{Off: 0, Len: 200}},
		{{Off: 200, Len: 200}},
		{{Off: 400, Len: 200}},
	}
	var union []Extent
	var total int64
	for _, o := range owned {
		plan := RedumpPlan(lost, o)
		total += SumLen(plan)
		union = append(union, plan...)
	}
	if total != 300 {
		t.Fatalf("per-owner plans cover %d bytes, want 300 (exactly once)", total)
	}
	if got := Coalesce(union); !reflect.DeepEqual(got, Coalesce(lost)) {
		t.Fatalf("union of plans = %v, want %v", got, Coalesce(lost))
	}
}
