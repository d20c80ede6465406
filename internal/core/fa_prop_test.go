package core

// Property tests for the file-area partitioners (paper §4.1). Rather than
// pinning outputs, these assert the invariants any correct partition must
// satisfy on randomized span sets: groups form an exact partition of the
// ranks, direct-mode file areas never intersect, and logical-mode prefix
// offsets are exactly the exclusive prefix sums of the start-sorted sizes.
// The same checkers back the native fuzz target in fuzz_test.go.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomSpans builds one span per rank: mostly serial segments with random
// gaps (pattern a), occasionally rewound to overlap earlier data (pattern b),
// occasionally inactive, and sometimes sparser than their extent (the size a
// view reports can be below end-st for non-contiguous filetypes). At least
// one span is always active.
func randomSpans(rng *rand.Rand) []span {
	n := 1 + rng.Intn(12)
	spans := make([]span, n)
	var cursor int64
	anyActive := false
	for _, r := range rng.Perm(n) {
		s := span{rank: r}
		if rng.Intn(10) > 0 || !anyActive && r == n-1 {
			s.active = true
			anyActive = true
			s.size = 1 + rng.Int63n(999)
			extent := s.size + rng.Int63n(s.size+1)/4
			if rng.Intn(3) == 0 && cursor > 0 {
				s.st = cursor - (rng.Int63n(cursor) + 1) // overlap earlier spans
			} else {
				s.st = cursor + rng.Int63n(100)
			}
			s.end = s.st + extent
			if s.end > cursor {
				cursor = s.end
			}
		}
		spans[r] = s
	}
	if !anyActive {
		spans[0] = span{rank: 0, st: 0, end: 64, size: 64, active: true}
	}
	return spans
}

// coverExactly checks groups form an exact partition of the ranks in spans.
func coverExactly(spans []span, groups [][]int) error {
	seen := make(map[int]int, len(spans))
	for _, g := range groups {
		for _, r := range g {
			seen[r]++
		}
	}
	for _, s := range spans {
		if seen[s.rank] != 1 {
			return fmt.Errorf("rank %d appears %d times across groups", s.rank, seen[s.rank])
		}
	}
	if len(seen) != len(spans) {
		return fmt.Errorf("groups hold %d distinct ranks, want %d", len(seen), len(spans))
	}
	return nil
}

func spanByRank(spans []span) map[int]span {
	m := make(map[int]span, len(spans))
	for _, s := range spans {
		m[s.rank] = s
	}
	return m
}

func sortedActives(spans []span) []span {
	var a []span
	for _, s := range spans {
		if s.active {
			a = append(a, s)
		}
	}
	sort.Slice(a, func(i, j int) bool {
		if a[i].st != a[j].st {
			return a[i].st < a[j].st
		}
		return a[i].rank < a[j].rank
	})
	return a
}

// checkPartitionDirect asserts the direct-partition invariants. Refusing to
// partition (ok=false) is always legal — pattern (c) inputs have no clean
// cuts — but an accepted partition must be exact, have an active member in
// every group, and have strictly non-intersecting file areas in group order.
func checkPartitionDirect(spans []span, ngroups int) error {
	groups, ok := partitionDirect(spans, ngroups)
	if !ok {
		return nil
	}
	if len(groups) != ngroups {
		return fmt.Errorf("got %d groups, want %d", len(groups), ngroups)
	}
	if err := coverExactly(spans, groups); err != nil {
		return err
	}
	byRank := spanByRank(spans)
	prevEnd := int64(-1 << 62)
	for g, members := range groups {
		var lo, hi int64
		any := false
		for _, r := range members {
			s := byRank[r]
			if !s.active {
				continue
			}
			if !any || s.st < lo {
				lo = s.st
			}
			if !any || s.end > hi {
				hi = s.end
			}
			any = true
		}
		if !any {
			return fmt.Errorf("group %d has no active member", g)
		}
		if lo < prevEnd {
			return fmt.Errorf("group %d FA [%d,%d) intersects group %d (ends %d)", g, lo, hi, g-1, prevEnd)
		}
		prevEnd = hi
	}
	return nil
}

// checkPartitionLogical asserts the intermediate-view invariants: an exact
// partition into at most ngroups non-empty groups, prefix offsets equal to
// the exclusive prefix sums over the (st, rank)-sorted actives — hence
// monotone non-decreasing in that order — and active ranks appearing across
// the groups exactly in that sorted order.
func checkPartitionLogical(spans []span, ngroups int) error {
	groups, prefix := partitionLogical(spans, ngroups)
	if err := coverExactly(spans, groups); err != nil {
		return err
	}
	actives := sortedActives(spans)
	maxGroups := ngroups
	if len(actives) < maxGroups {
		maxGroups = len(actives)
	}
	if maxGroups < 1 {
		maxGroups = 1
	}
	if len(groups) < 1 || len(groups) > maxGroups {
		return fmt.Errorf("got %d groups, want 1..%d", len(groups), maxGroups)
	}
	for g, members := range groups {
		if len(members) == 0 {
			return fmt.Errorf("group %d is empty after compaction", g)
		}
	}
	if len(prefix) != len(actives) {
		return fmt.Errorf("prefix has %d entries, want %d", len(prefix), len(actives))
	}
	var want int64
	for _, s := range actives {
		got, okp := prefix[s.rank]
		if !okp || got != want {
			return fmt.Errorf("prefix[rank %d] = %d, want %d", s.rank, got, want)
		}
		want += s.size
	}
	byRank := spanByRank(spans)
	var order []int
	for _, g := range groups {
		for _, r := range g {
			if byRank[r].active {
				order = append(order, r)
			}
		}
	}
	for i, s := range actives {
		if order[i] != s.rank {
			return fmt.Errorf("active rank order broken at %d: got rank %d, want %d", i, order[i], s.rank)
		}
	}
	return nil
}

func TestPropPartitionDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spans := randomSpans(rng)
		ngroups := 1 + rng.Intn(len(spans))
		if err := checkPartitionDirect(spans, ngroups); err != nil {
			t.Logf("seed %d ngroups %d: %v", seed, ngroups, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropPartitionDirectSerial forces pattern (a) — strictly serial,
// non-overlapping segments — where direct partitioning must always succeed
// for any feasible group count.
func TestPropPartitionDirectSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		spans := make([]span, n)
		var cursor int64
		for r := 0; r < n; r++ {
			size := 1 + rng.Int63n(500)
			spans[r] = span{rank: r, st: cursor, end: cursor + size, size: size, active: true}
			cursor += size + rng.Int63n(50)
		}
		ngroups := 1 + rng.Intn(n)
		if _, ok := partitionDirect(spans, ngroups); !ok {
			t.Logf("seed %d: direct partition refused serial spans (n=%d ngroups=%d)", seed, n, ngroups)
			return false
		}
		return checkPartitionDirect(spans, ngroups) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropPartitionLogical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spans := randomSpans(rng)
		ngroups := 1 + rng.Intn(len(spans)+2) // may exceed active count; must clamp
		if err := checkPartitionLogical(spans, ngroups); err != nil {
			t.Logf("seed %d ngroups %d: %v", seed, ngroups, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPartitionLogicalAllInactive pins the degenerate no-data collective:
// every rank inactive must still yield one group holding all ranks.
func TestPartitionLogicalAllInactive(t *testing.T) {
	spans := []span{{rank: 0}, {rank: 1}, {rank: 2}}
	groups, prefix := partitionLogical(spans, 2)
	if err := coverExactly(spans, groups); err != nil {
		t.Fatal(err)
	}
	if len(prefix) != 0 {
		t.Fatalf("prefix for all-inactive spans = %v, want empty", prefix)
	}
}

// checkPlan asserts the invariants of any plan Partition returns for n comm
// ranks with world map worldOf: every rank in exactly one group, every group
// with at least one aggregator, each a member of its group, and single mode
// meaning exactly one group.
func checkPlan(plan Plan, n int, worldOf func(int) int) error {
	if len(plan.Groups) != plan.NumGroups || len(plan.Aggregators) != plan.NumGroups {
		return fmt.Errorf("%d groups and %d aggregator lists, want NumGroups %d", len(plan.Groups), len(plan.Aggregators), plan.NumGroups)
	}
	if plan.Mode == ModeSingle && plan.NumGroups != 1 {
		return fmt.Errorf("single mode with %d groups", plan.NumGroups)
	}
	groupOf := make(map[int]int, n)
	for g, members := range plan.Groups {
		for _, w := range members {
			if _, dup := groupOf[w]; dup {
				return fmt.Errorf("world rank %d in two groups", w)
			}
			groupOf[w] = g
		}
	}
	for cr := 0; cr < n; cr++ {
		if _, ok := groupOf[worldOf(cr)]; !ok {
			return fmt.Errorf("comm rank %d (world %d) in no group", cr, worldOf(cr))
		}
	}
	if len(groupOf) != n {
		return fmt.Errorf("groups hold %d ranks, want %d", len(groupOf), n)
	}
	for g, aggs := range plan.Aggregators {
		if len(aggs) == 0 {
			return fmt.Errorf("group %d has no aggregator", g)
		}
		for _, a := range aggs {
			if gg, ok := groupOf[a]; !ok || gg != g {
				return fmt.Errorf("aggregator %d of group %d is not a member", a, g)
			}
		}
	}
	return nil
}
