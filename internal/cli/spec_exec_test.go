package cli_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSpecEqualsFlags is the golden equivalence test for the declarative
// job-spec surface: every cmd tool, invoked with -spec FILE, must produce
// byte-identical stdout to the same invocation spelled with flags. The two
// spellings share one code path (Common.ResolveSpec -> experiments.ApplySpec),
// and this test pins that the path has no forks.
func TestSpecEqualsFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the cmd tools")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/...")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tools: %v\n%s", err, out)
	}

	cases := []struct {
		tool  string
		spec  map[string]any
		flags []string // the flag spelling of spec
		extra []string // tool-specific arguments present in both runs
	}{
		{
			tool:  "tileio",
			spec:  map[string]any{"workload": "tileio", "procs": 16, "seed": 3, "scenario": "one-straggler"},
			flags: []string{"-procs", "16", "-seed", "3", "-scenario", "one-straggler"},
		},
		{
			tool:  "ior",
			spec:  map[string]any{"workload": "ior", "procs": 16, "seed": 2, "backend": "listio"},
			flags: []string{"-procs", "16", "-seed", "2", "-backend", "listio"},
			extra: []string{"-groups", "1,2"},
		},
		{
			tool:  "btio",
			spec:  map[string]any{"workload": "btio", "procs": 16, "seed": 2},
			flags: []string{"-procs", "16", "-seed", "2"},
		},
		{
			tool:  "flashio",
			spec:  map[string]any{"workload": "flashio", "procs": 16, "seed": 2},
			flags: []string{"-procs", "16", "-seed", "2"},
			extra: []string{"-groups", "4", "-aggs", "4"},
		},
		{
			tool:  "collwall",
			spec:  map[string]any{"procs": 16, "seed": 2},
			flags: []string{"-procs", "16", "-seed", "2"},
			extra: []string{"-minprocs", "16", "-maxprocs", "32"},
		},
		{
			tool:  "explore",
			spec:  map[string]any{"procs": 16, "seed": 2},
			flags: []string{"-procs", "16", "-seed", "2"},
			extra: []string{"-param", "latency", "-values", "1e-6,1e-5"},
		},
		{
			tool:  "paperrepro",
			spec:  map[string]any{"procs": 32, "seed": 2},
			flags: []string{"-procs", "32", "-seed", "2"},
			extra: []string{"-fig", "1", "-preset", "bench", "-timings=false"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.tool, func(t *testing.T) {
			specFile := filepath.Join(t.TempDir(), "spec.json")
			data, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(specFile, data, 0o644); err != nil {
				t.Fatal(err)
			}
			run := func(args []string) []byte {
				cmd := exec.Command(filepath.Join(bin, tc.tool), append(append([]string{"-json"}, tc.extra...), args...)...)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%s %v: %v\n%s", tc.tool, args, err, stderr.String())
				}
				return stdout.Bytes()
			}
			viaFlags := run(tc.flags)
			viaSpec := run([]string{"-spec", specFile})
			if !bytes.Equal(viaFlags, viaSpec) {
				t.Errorf("flags and -spec outputs differ\nflags:\n%s\nspec:\n%s", viaFlags, viaSpec)
			}
			if len(viaFlags) == 0 {
				t.Errorf("tool produced no output")
			}
		})
	}
}
