package main

import (
	"reflect"
	"testing"
)

// TestDispatch pins the subcommand surface: each mode name routes, anything
// else (including flag-first invocations) falls through to the default mode.
func TestDispatch(t *testing.T) {
	cases := []struct {
		args []string
		mode string
		rest []string
	}{
		{nil, "", nil},
		{[]string{"wall"}, "wall", []string{}},
		{[]string{"sweep", "-procs", "64"}, "sweep", []string{"-procs", "64"}},
		{[]string{"overlap"}, "overlap", []string{}},
		{[]string{"failures", "-scenario", "aggregator-crash"}, "failures", []string{"-scenario", "aggregator-crash"}},
		{[]string{"scenarios"}, "scenarios", []string{}},
		{[]string{"gantt", "-procs", "16"}, "gantt", []string{"-procs", "16"}},
		{[]string{"-sweep"}, "", []string{"-sweep"}},
		{[]string{"-json", "sweep"}, "", []string{"-json", "sweep"}},
		{[]string{"bogus"}, "", []string{"bogus"}},
	}
	for _, tc := range cases {
		mode, rest := dispatch(tc.args)
		if mode != tc.mode || !reflect.DeepEqual(rest, tc.rest) {
			t.Errorf("dispatch(%v) = (%q, %v), want (%q, %v)", tc.args, mode, rest, tc.mode, tc.rest)
		}
	}
}
