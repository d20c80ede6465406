package mpiio

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
)

func TestParseHints(t *testing.T) {
	h, err := ParseHints(map[string]string{
		"cb_nodes":          "64",
		"cb_buffer_size":    "4194304",
		"cb_config_list":    "0, 4 ,8",
		"parcoll_alltoallv": "pairwise",
		"romio_no_indep_rw": "true",
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.CBNodes != 64 || h.CBBufferSize != 4<<20 {
		t.Errorf("parsed %+v", h)
	}
	if !reflect.DeepEqual(h.AggregatorList, []int{0, 4, 8}) {
		t.Errorf("aggregator list %v", h.AggregatorList)
	}
	if h.AlltoallvAlgo != mpi.AlltoallvPairwise {
		t.Error("alltoallv algo not parsed")
	}
}

func TestParseHintsErrors(t *testing.T) {
	bad := []map[string]string{
		{"cb_nodes": "-1"},
		{"cb_nodes": "lots"},
		{"cb_buffer_size": "0"},
		{"cb_config_list": "0,x"},
		{"cb_config_list": "0,0,2"},
		{"parcoll_alltoallv": "magic"},
		{"not_a_hint": "1"},
	}
	for _, info := range bad {
		if _, err := ParseHints(info); err == nil {
			t.Errorf("ParseHints(%v) accepted bad input", info)
		}
	}
	// A repeated aggregator is named, so the user can find it in a long list.
	_, err := ParseHints(map[string]string{"cb_config_list": "0,4,8,4"})
	if err == nil || !strings.Contains(err.Error(), "rank 4 twice") {
		t.Errorf("repeated cb_config_list entry: err = %v, want it to name rank 4", err)
	}
}

func TestHintsInfoRoundTrip(t *testing.T) {
	h := Hints{CBNodes: 8, CBBufferSize: 1 << 20, AggregatorList: []int{1, 3},
		AlltoallvAlgo: mpi.AlltoallvPairwise}
	info := h.Info()
	joined := strings.Join(info, " ")
	for _, want := range []string{"cb_nodes=8", "cb_buffer_size=1048576",
		"cb_config_list=1,3", "parcoll_alltoallv=pairwise"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Info() missing %q: %v", want, info)
		}
	}
	// Defaults materialize cb_buffer_size.
	if got := (Hints{}).Info(); len(got) != 1 || got[0] != "cb_buffer_size=4194304" {
		t.Errorf("default Info() = %v", got)
	}
}
