package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

var errCompare = errors.New("compare: regression, physics moved, or more ops failed")

// compareFiles diffs two result files of the same seed, A the parent and B
// the change. Physics must be identical: every virtual metric and every
// digest. Each end-to-end host metric gets a verdict from its bound in
// BENCHMARK.json; per-layer host numbers and counts are listed as deltas.
// It returns errCompare when B regresses, moves physics or fails more ops.
func compareFiles(w io.Writer, pathA, pathB string, spec benchSpec) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if a.Manifest.Seed != b.Manifest.Seed || a.Manifest.Geometry != b.Manifest.Geometry {
		return fmt.Errorf("compare: seed %d/%s against seed %d/%s: physics is only comparable at one seed and geometry",
			a.Manifest.Seed, a.Manifest.Geometry, b.Manifest.Seed, b.Manifest.Geometry)
	}
	fmt.Fprintf(w, "A %s: rev %s, %s, gomaxprocs %d\nB %s: rev %s, %s, gomaxprocs %d\n",
		pathA, a.Manifest.GitRev, a.Manifest.GoVersion, a.Manifest.GOMAXPROCS,
		pathB, b.Manifest.GitRev, b.Manifest.GoVersion, b.Manifest.GOMAXPROCS)
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		if m.Bound != nil {
			bounds[m.Name] = *m.Bound
		}
	}
	bad := false
	for _, key := range runKeys(a, b) {
		ra, rb := pick(a, key), pick(b, key)
		fmt.Fprintf(w, "\n== %s, trace %v: %d runs against %d ==\n", key.workload, key.trace, len(ra), len(rb))
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "  only in one file\n")
			bad = true
			continue
		}
		if fa, fb := failedShare(ra), failedShare(rb); fb > fa {
			fmt.Fprintf(w, "  FAILED OPS  share %.4f -> %.4f\n", fa, fb)
			bad = true
		}
		if da, db := digests(ra), digests(rb); len(da) != 1 || len(db) != 1 || da[0] != db[0] {
			fmt.Fprintf(w, "  PHYSICS MOVED  physics_digest %v -> %v\n", da, db)
			bad = true
		} else {
			fmt.Fprintf(w, "  physics_digest equal (%s)\n", da[0])
		}
		defs := endToEnd
		if key.trace {
			defs = perLayer
		}
		for _, d := range defs {
			va, vb := values(ra, d.name), values(rb, d.name)
			if len(va) == 0 && len(vb) == 0 {
				continue // n/a on this workload
			}
			ma, mb := median(va), median(vb)
			delta := 0.0
			if ma != 0 {
				delta = (mb - ma) / ma
			}
			verdict := ""
			switch bound, bounded := bounds[d.name]; {
			case d.clock == virtual:
				verdict = "equal"
				if !allEqual(va, vb) {
					verdict, bad = "PHYSICS MOVED", true
				}
			case bounded:
				verdict = judge(va, vb, d.better, bound)
				bad = bad || verdict == "REGRESSION"
			}
			fmt.Fprintf(w, "  %-32s %14.6g -> %14.6g %-7s %+7.2f%%  spread %.2f%% / %.2f%%  %s\n",
				d.name, ma, mb, d.unit, 100*delta, 100*spread(va), 100*spread(vb), verdict)
		}
	}
	if bad {
		return errCompare
	}
	return nil
}

// judge gives an end-to-end host metric its verdict. B regresses when its
// median is worse than A's by more than the bound. When the run-to-run
// spread of either side is wider than the bound the difference cannot be
// told from noise, and the metric is unresolved — unless the runs do not
// overlap at all, which settles it either way.
func judge(a, b []float64, better string, bound float64) string {
	// Flip a higher-is-better metric so that larger always means worse.
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	ta, tb := scaled(a, sign), scaled(b, sign)
	worse := 0.0
	if ma := median(ta); ma != 0 {
		worse = (median(tb) - ma) / math.Abs(ma)
	}
	allWorse := tb[0] > ta[len(ta)-1]
	allBetter := tb[len(tb)-1] < ta[0]
	noisy := max(spread(a), spread(b)) > bound
	switch {
	case worse > bound && (!noisy || allWorse):
		return "REGRESSION"
	case noisy && !allBetter:
		return "unresolved"
	}
	return "ok"
}

// scaled returns xs times k, sorted.
func scaled(xs []float64, k float64) []float64 {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = k * x
	}
	sort.Float64s(s)
	return s
}

type runKey struct {
	workload string
	trace    bool
}

// runKeys lists the (workload, pass) pairs of both files, in workload order.
func runKeys(files ...resultFile) []runKey {
	seen := map[runKey]bool{}
	var keys []runKey
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			k := runKey{def.name, trace}
			for _, f := range files {
				if len(pick(f, k)) > 0 && !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}

func pick(f resultFile, k runKey) []runResult {
	var out []runResult
	for _, r := range f.Runs {
		if r.Workload == k.workload && r.Trace == k.trace {
			out = append(out, r)
		}
	}
	return out
}

// values collects a metric over runs, leaving out runs where it is n/a.
func values(runs []runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok && !v.NA {
			out = append(out, v.Value)
		}
	}
	return out
}

func allEqual(a, b []float64) bool {
	for _, x := range append(append([]float64(nil), a...), b...) {
		if x != a[0] {
			return false
		}
	}
	return len(a) > 0 && len(b) > 0
}

func digests(runs []runResult) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		if !seen[r.PhysicsDigest] {
			seen[r.PhysicsDigest] = true
			out = append(out, r.PhysicsDigest)
		}
	}
	return out
}

func failedShare(runs []runResult) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
