package core

import (
	"encoding/binary"
	"sort"

	"repro/internal/datatype"
)

// Intermediate file views (paper §4.1, Figure 4(c)).
//
// When a process's accesses spread across the whole file, no direct
// partitioning into disjoint FAs exists. ParColl then switches the view:
// each process's physical segments are virtually joined into one contiguous
// logical run, runs are concatenated in (physical start, rank) order, and
// the two-phase protocol aggregates in this logical file. The original view
// survives as the logical-to-physical translation applied when aggregators
// finally read or write.

// compactView is a group-local intermediate file view: the union of the
// group members' physical segments, sorted by offset and coalesced, forms
// the logical file (the group's bytes with the holes squeezed out). Under
// this view the two-phase windows of the subgroup's aggregators map to the
// *physically densest* runs the group's data admits — for BT-IO's diagonal
// multi-partitioning, a subgroup of one process-grid row covers whole
// solution slabs, so the aggregators' final writes coalesce into large
// contiguous requests just as the unpartitioned protocol's do.
type compactView struct {
	union  []datatype.Segment // sorted, coalesced physical segments (instance 0)
	prefix []int64            // logical start of each union segment
	size   int64              // logical bytes per instance
	extent int64              // physical bytes per instance (for tiling)
}

// newCompactView builds the view from the members' (disjoint) physical
// segment lists for one filetype instance; later instances tile at extent.
func newCompactView(lists [][]datatype.Segment, extent int64) *compactView {
	var all []datatype.Segment
	for _, l := range lists {
		all = append(all, l...)
	}
	union := datatype.Coalesce(all)
	prefix := make([]int64, len(union))
	var n int64
	for i, s := range union {
		prefix[i] = n
		n += s.Len
	}
	if extent <= 0 {
		extent = 1
	}
	return &compactView{union: union, prefix: prefix, size: n, extent: extent}
}

// logicalOf translates a physical offset inside the union to its logical
// position.
func (v *compactView) logicalOf(phys int64) int64 {
	i := sort.Search(len(v.union), func(k int) bool { return v.union[k].Off > phys }) - 1
	if i < 0 || phys >= v.union[i].End() {
		panic("core: physical offset outside intermediate view")
	}
	return v.prefix[i] + (phys - v.union[i].Off)
}

// logicalSegs translates a member's physical segments (each contained in
// one union segment by construction) into logical segments.
func (v *compactView) logicalSegs(segs []datatype.Segment) []datatype.Segment {
	out := make([]datatype.Segment, len(segs))
	for i, s := range segs {
		out[i] = datatype.Segment{Off: v.logicalOf(s.Off), Len: s.Len}
	}
	return datatype.Coalesce(out)
}

// Phys implements mpiio.Translator: logical [off, off+n) back to physical
// segments in logical order. Logical offsets beyond one instance's size
// tile into the next instance at the physical extent.
func (v *compactView) Phys(off, n int64) []datatype.Segment {
	var out []datatype.Segment
	for n > 0 {
		tile := off / v.size
		local := off % v.size
		i := sort.Search(len(v.prefix), func(k int) bool { return v.prefix[k] > local }) - 1
		if i < 0 || local >= v.prefix[i]+v.union[i].Len {
			panic("core: logical offset outside intermediate view")
		}
		rel := local - v.prefix[i]
		take := v.union[i].Len - rel
		if take > n {
			take = n
		}
		out = append(out, datatype.Segment{Off: tile*v.extent + v.union[i].Off + rel, Len: take})
		off += take
		n -= take
	}
	return out
}

func encSegs(segs []datatype.Segment) []byte {
	out := make([]byte, 0, 16*len(segs))
	for _, s := range segs {
		out = binary.LittleEndian.AppendUint64(out, uint64(s.Off))
		out = binary.LittleEndian.AppendUint64(out, uint64(s.Len))
	}
	return out
}

func decSegs(b []byte) []datatype.Segment {
	segs := make([]datatype.Segment, len(b)/16)
	for i := range segs {
		segs[i].Off = int64(binary.LittleEndian.Uint64(b[16*i:]))
		segs[i].Len = int64(binary.LittleEndian.Uint64(b[16*i+8:]))
	}
	return segs
}
