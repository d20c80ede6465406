package core

// I/O aggregator distribution (paper §4.2, Figure 5).
//
// ParColl must honor the MPI-IO aggregator hints while dividing processes
// into subgroups. The distribution algorithm assigns aggregators so that:
//
//	(a) every subgroup has at least one aggregator;
//	(b) no two processes on the same physical node aggregate for
//	    different subgroups;
//	(c) aggregators are spread as evenly as the groups permit.
//
// Following the paper, it traverses each subgroup's processes round-robin
// across subgroups, picking the next process that sits on an unused
// aggregator node, until all aggregator nodes are consumed or no progress
// can be made.

// DistributeAggregators assigns aggregators to groups.
//
// groups lists the member world ranks of each subgroup (traversal order is
// the given order). nodeOf maps a world rank to its physical node. aggNodes
// is the set of nodes allowed to host aggregators (derived from the user's
// hints: the nodes of the default one-per-node list, or of the explicit
// aggregator rank list).
//
// The result holds, per group, the world ranks chosen as aggregators. Every
// group receives at least one entry: if the round-robin pass leaves a group
// empty (no member on an available aggregator node), its first member is
// drafted, honoring requirement (a).
func DistributeAggregators(groups [][]int, nodeOf func(rank int) int, aggNodes []int) [][]int {
	allowed := make(map[int]bool, len(aggNodes))
	for _, n := range aggNodes {
		allowed[n] = true
	}
	used := make(map[int]bool, len(aggNodes))
	out := make([][]int, len(groups))
	cursor := make([]int, len(groups))
	remaining := len(aggNodes)
	for remaining > 0 {
		progress := false
		for g, members := range groups {
			for cursor[g] < len(members) {
				rank := members[cursor[g]]
				cursor[g]++
				node := nodeOf(rank)
				if allowed[node] && !used[node] {
					used[node] = true
					remaining--
					out[g] = append(out[g], rank)
					progress = true
					break
				}
			}
		}
		if !progress {
			break
		}
	}
	for g, members := range groups {
		if len(out[g]) != 0 || len(members) == 0 {
			continue
		}
		// Requirement (a): draft a member even though none sits on an
		// available aggregator node — preferring a node not already
		// hosting another group's aggregator to keep (b) intact.
		pick := members[0]
		for _, m := range members {
			if !used[nodeOf(m)] {
				pick = m
				break
			}
		}
		used[nodeOf(pick)] = true
		out[g] = append(out[g], pick)
	}
	return out
}

// naiveAggregators is the ablation foil for DistributeAggregators: each
// group keeps the first process per allowed node among its own members,
// with no cross-group coordination. When the aggregator nodes concentrate
// at low ranks (the default list does), early groups hoard them and later
// groups fall back to their first member.
func naiveAggregators(groups [][]int, nodeOf func(rank int) int, aggNodes []int) [][]int {
	allowed := make(map[int]bool, len(aggNodes))
	for _, n := range aggNodes {
		allowed[n] = true
	}
	out := make([][]int, len(groups))
	for g, members := range groups {
		seen := make(map[int]bool)
		for _, m := range members {
			if n := nodeOf(m); allowed[n] && !seen[n] {
				seen[n] = true
				out[g] = append(out[g], m)
			}
		}
		if len(out[g]) == 0 && len(members) > 0 {
			out[g] = append(out[g], members[0])
		}
	}
	return out
}
