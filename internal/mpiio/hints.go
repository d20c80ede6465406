package mpiio

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mpi"
)

// MPI_Info-style hint parsing: applications configure collective I/O with
// string key/value pairs ("cb_nodes" = "64", "cb_buffer_size" = "4194304",
// "cb_config_list" = "0,4,8"). ParseHints maps the ROMIO-compatible subset
// onto Hints.

// ParseHints builds Hints from MPI_Info-like key/value pairs. Unknown keys
// are rejected so typos do not silently disable tuning.
//
// Supported keys:
//
//	cb_nodes        - number of I/O aggregators from the default list
//	cb_buffer_size  - collective buffer per aggregator per round, bytes
//	cb_config_list  - comma-separated world ranks to use as aggregators
//	romio_no_indep_rw - accepted and ignored (compatibility)
//	parcoll_alltoallv - "direct" (default) or "pairwise"
//	parcoll_intranode - "enable" for two-level collectives, "disable" (default)
//	striping_unit   - accepted and ignored (striping is set at open)
func ParseHints(info map[string]string) (Hints, error) {
	var h Hints
	for k, v := range info {
		switch k {
		case "cb_nodes":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return h, fmt.Errorf("mpiio: bad cb_nodes %q", v)
			}
			h.CBNodes = n
		case "cb_buffer_size":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return h, fmt.Errorf("mpiio: bad cb_buffer_size %q", v)
			}
			h.CBBufferSize = n
		case "cb_config_list":
			for _, f := range strings.Split(v, ",") {
				f = strings.TrimSpace(f)
				if f == "" {
					continue
				}
				r, err := strconv.Atoi(f)
				if err != nil || r < 0 {
					return h, fmt.Errorf("mpiio: bad cb_config_list entry %q", f)
				}
				if slices.Contains(h.AggregatorList, r) {
					return h, fmt.Errorf("mpiio: cb_config_list names rank %d twice", r)
				}
				h.AggregatorList = append(h.AggregatorList, r)
			}
		case "parcoll_alltoallv":
			switch v {
			case "direct":
				h.AlltoallvAlgo = mpi.AlltoallvDirect
			case "pairwise":
				h.AlltoallvAlgo = mpi.AlltoallvPairwise
			default:
				return h, fmt.Errorf("mpiio: bad parcoll_alltoallv %q", v)
			}
		case "parcoll_intranode":
			switch v {
			case "enable":
				h.IntraNode = true
			case "disable":
				h.IntraNode = false
			default:
				return h, fmt.Errorf("mpiio: bad parcoll_intranode %q", v)
			}
		case "romio_no_indep_rw", "striping_unit":
			// accepted for compatibility, no effect here
		default:
			return h, fmt.Errorf("mpiio: unknown hint %q", k)
		}
	}
	return h, nil
}

// Info renders the hints back as MPI_Info-like pairs (the inverse of
// ParseHints, with defaults materialized), in deterministic key order.
func (h Hints) Info() []string {
	m := map[string]string{
		"cb_buffer_size": strconv.FormatInt(h.cb(), 10),
	}
	if h.CBNodes > 0 {
		m["cb_nodes"] = strconv.Itoa(h.CBNodes)
	}
	if len(h.AggregatorList) > 0 {
		parts := make([]string, len(h.AggregatorList))
		for i, r := range h.AggregatorList {
			parts[i] = strconv.Itoa(r)
		}
		m["cb_config_list"] = strings.Join(parts, ",")
	}
	if h.AlltoallvAlgo == mpi.AlltoallvPairwise {
		m["parcoll_alltoallv"] = "pairwise"
	}
	if h.IntraNode {
		m["parcoll_intranode"] = "enable"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k + "=" + m[k]
	}
	return out
}
