package cli_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds the cmd tools, built once per test binary by tools.
var binDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// tools builds every cmd tool (once) and returns the directory holding
// the binaries.
func tools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the cmd tools")
	}
	if binDir != "" {
		return binDir
	}
	dir, err := os.MkdirTemp("", "parcoll-tools")
	if err != nil {
		t.Fatal(err)
	}
	build := exec.Command("go", "build", "-o", dir, "./cmd/...")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		t.Fatalf("building tools: %v\n%s", err, out)
	}
	binDir = dir
	return dir
}

// runTool runs one tool and returns its stdout, stderr and exit code.
func runTool(t *testing.T, tool string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(tools(t), tool), args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", tool, args, err)
		}
		code = ee.ExitCode()
	}
	return out.Bytes(), errOut.Bytes(), code
}

// TestSpecEqualsFlags is the golden equivalence test for the declarative
// job-spec surface: every cmd tool, invoked with -spec FILE, must produce
// byte-identical stdout to the same invocation spelled with flags. The two
// spellings share one code path (the flags bind into Common.Spec, -spec
// decodes over it, experiments.Preset.ApplySpec consumes it), and this test
// pins that the path has no forks.
func TestSpecEqualsFlags(t *testing.T) {
	cases := []struct {
		name  string // subtest name; empty means the tool's
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
		{
			// A flag the file omits keeps its value: -seed 3 survives a
			// spec that does not set the seed. The scenario makes the seed
			// matter (a healthy tile run draws nothing from it).
			name:  "tileio-mixed",
			tool:  "tileio",
			spec:  map[string]any{"procs": 16, "scenario": "one-straggler"},
			flags: []string{"-procs", "16", "-scenario", "one-straggler"},
			extra: []string{"-seed", "3"},
		},
	}
	for _, tc := range cases {
		name := tc.name
		if name == "" {
			name = tc.tool
		}
		t.Run(name, func(t *testing.T) {
			specFile := filepath.Join(t.TempDir(), "spec.json")
			data, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(specFile, data, 0o644); err != nil {
				t.Fatal(err)
			}
			run := func(args []string) []byte {
				stdout, stderr, code := runTool(t, tc.tool, append(append([]string{"-json"}, tc.extra...), args...)...)
				if code != 0 {
					t.Fatalf("%s %v: exit %d\n%s", tc.tool, args, code, stderr)
				}
				return stdout
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

// TestCollwallScenarioAll pins collwall's catalog spelling: -scenario all
// runs the same catalog as omitting the flag, byte for byte.
func TestCollwallScenarioAll(t *testing.T) {
	for _, mode := range []string{"failures", "scenarios"} {
		t.Run(mode, func(t *testing.T) {
			args := []string{mode, "-json", "-procs", "8", "-groups", "2"}
			omitted, stderr, code := runTool(t, "collwall", args...)
			if code != 0 {
				t.Fatalf("collwall %v: exit %d\n%s", args, code, stderr)
			}
			all, stderr, code := runTool(t, "collwall", append(args, "-scenario", "all")...)
			if code != 0 {
				t.Fatalf("collwall %v -scenario all: exit %d\n%s", args, code, stderr)
			}
			if !bytes.Equal(omitted, all) {
				t.Errorf("-scenario all differs from the omitted flag\nomitted:\n%s\nall:\n%s", omitted, all)
			}
		})
	}
}

// TestToolErrors pins the tools' argument checks: each invocation must
// exit 1 — not panic, not run an empty sweep — with stderr naming the
// valid range of the offending flag.
func TestToolErrors(t *testing.T) {
	cases := []struct {
		tool string
		args []string
		want string
	}{
		{"btio", []string{"-procs", "8", "-verify"}, "-procs 8"},
		{"explore", []string{"-param", "bogus", "-values", "1,2"}, "latency, tailprob, jitter, ostbw, osts, switch"},
		{"paperrepro", []string{"-fig", "3"}, "all,1,2,6,7,8,9,10,11"},
	}
	for _, tc := range cases {
		t.Run(tc.tool, func(t *testing.T) {
			_, stderr, code := runTool(t, tc.tool, tc.args...)
			if code != 1 || !strings.Contains(string(stderr), tc.want) {
				t.Errorf("%s %v: exit %d, stderr %q; want exit 1 naming %q", tc.tool, tc.args, code, stderr, tc.want)
			}
		})
	}
}
