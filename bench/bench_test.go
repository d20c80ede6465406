package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
)

// BENCHMARK.json, the tables in metrics.go and what a run emits are one
// vocabulary; a name that drifts in one of them fails here.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	match := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v, harness %v, want in (0, 0.25]", m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd, true)
	match("per_layer", spec.PerLayer, perLayer, false)
	setup := endToEnd[len(endToEnd)-1]
	for _, d := range endToEnd {
		if d.bound > setup.bound {
			t.Errorf("setup_s must have the largest bound; %s has %v", d.name, d.bound)
		}
	}
	if setup.name != "setup_s" || setup.unit != "s" || setup.better != "lower" {
		t.Errorf("last end-to-end metric is %+v, want setup_s in s, lower", setup)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v %v %v", q1, med, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // n..1, unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		val, pct float64
	}{
		{1, 1, 100}, {10, 10, 100}, // too few: the maximum, flagged by pct 100
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		val, pct := tail(seq(c.n))
		if val != c.val || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", c.n, val, pct, c.val, c.pct)
		}
	}
}

// synthetic builds a result file whose wall-1024 untraced runs have the
// given wall times; everything else is steady.
func synthetic(t *testing.T, digest string, bw float64, failed int, wall ...float64) string {
	t.Helper()
	rf := resultFile{Manifest: manifest{Schema: schema, Seed: 1, Geometry: "full"}}
	for _, w := range wall {
		rf.Runs = append(rf.Runs, runResult{
			Workload: "wall-1024", Correct: failed == 0, Attempted: 20, Failed: failed, PhysicsDigest: digest,
			Metrics: map[string]metricValue{
				"wall_ms_per_op":  {Value: w, Unit: "ms"},
				"allocs_per_op":   {Value: 484000, Unit: "count"},
				"alloc_MB_per_op": {Value: 687, Unit: "MB"},
				"virt_bw_MBps":    {Value: bw, Unit: "MB/s"},
				"setup_s":         {Value: 3.3, Unit: "s"},
			},
		})
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResult(path, rf); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	steady := []float64{1000, 1004, 998, 1002, 1001}
	base := synthetic(t, "d1", 6607, 0, steady...)
	for _, c := range []struct {
		name    string
		b       string
		bad     bool
		verdict string // must appear on the wall_ms_per_op line
	}{
		{"equal", synthetic(t, "d1", 6607, 0, steady...), false, "ok"},
		{"regressed", synthetic(t, "d1", 6607, 0, 1200, 1204, 1198, 1202, 1201), true, "REGRESSION"},
		{"improved", synthetic(t, "d1", 6607, 0, 800, 804, 798, 802, 801), false, "ok"},
		{"unresolved", synthetic(t, "d1", 6607, 0, 700, 1300, 990, 1150, 850), false, "unresolved"},
		{"noisy but every run worse", synthetic(t, "d1", 6607, 0, 1300, 1900, 1500, 1700, 1400), true, "REGRESSION"},
		{"digest moved", synthetic(t, "d2", 6607, 0, steady...), true, "ok"},
		{"virtual metric moved", synthetic(t, "d1", 6607.0001, 0, steady...), true, "ok"},
		{"more failed ops", synthetic(t, "d1", 6607, 1, steady...), true, "ok"},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, c.b, spec)
		if (err != nil) != c.bad {
			t.Errorf("%s: err = %v, want failure %v\n%s", c.name, err, c.bad, out.String())
		}
		var wallLine string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "wall_ms_per_op") {
				wallLine = line
			}
		}
		if !strings.HasSuffix(wallLine, c.verdict) {
			t.Errorf("%s: wall_ms_per_op line %q, want verdict %q", c.name, wallLine, c.verdict)
		}
	}
	other := resultFile{Manifest: manifest{Schema: schema, Seed: 2, Geometry: "full"}}
	p := filepath.Join(t.TempDir(), "seed2.json")
	if err := writeResult(p, other); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(&bytes.Buffer{}, base, p, spec); err == nil {
		t.Error("files of different seeds compared without an error")
	}
}

// naOn lists, per workload, the per-layer metrics that do not exist there.
// Everything else must be measured; host times never appear here except the
// one rate that divides a count tenancy.Run does not return.
var naOn = map[string][]string{
	"wall-1024": {"mpiio.virt_read_bw_MBps", "lustre.requests_per_op", "pvfs.requests_per_op",
		"tenancy.virt_makespan_s", "tenancy.virt_hog_p99_ms", "tenancy.qos_delay_s"},
	"parcoll-rw-1024": {"lustre.requests_per_op", "pvfs.requests_per_op",
		"tenancy.virt_makespan_s", "tenancy.virt_hog_p99_ms", "tenancy.qos_delay_s"},
	"storage-3be-256": {"mpiio.virt_sync_share", "mpiio.virt_exchange_s", "mpiio.virt_io_s",
		"mpiio.virt_write_bw_MBps", "mpiio.virt_read_bw_MBps",
		"tenancy.virt_makespan_s", "tenancy.virt_hog_p99_ms", "tenancy.qos_delay_s"},
	"tenants-4job": {"sim.events_per_op", "sim.resumes_per_op", "sim.sends_per_op", "sim.max_ready_depth",
		"sim.wildcard_scanned_per_op", "sim.events_per_s",
		"mpi.coll_calls_per_op", "mpi.p2p_msgs_per_op", "mpi.p2p_MB_per_op",
		"mpiio.virt_sync_share", "mpiio.virt_exchange_s", "mpiio.virt_io_s",
		"mpiio.virt_write_bw_MBps", "mpiio.virt_read_bw_MBps",
		"lustre.requests_per_op", "pvfs.requests_per_op"},
}

// The whole harness at toy size: every workload, both passes, every probe.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		cfg := smokeConfig
		cfg.seed, cfg.outDir, cfg.log = 1, t.TempDir(), io.Discard

		cfg.trace = false
		e2e := runWorkload(def, cfg)
		if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 2 {
			t.Fatalf("%s untraced: %+v", def.name, e2e)
		}
		if len(e2e.Metrics) != len(endToEnd) {
			t.Errorf("%s: untraced pass emitted %d metrics, want %d", def.name, len(e2e.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := e2e.Metrics[d.name]; !ok || v.NA || v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v); must be positive, in %s", def.name, d.name, v, ok, d.unit)
			}
		}

		cfg.trace = true
		res := runWorkload(def, cfg)
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s traced: %+v", def.name, res)
		}
		if res.PhysicsDigest != e2e.PhysicsDigest {
			t.Errorf("%s: digest %s traced, %s untraced", def.name, res.PhysicsDigest, e2e.PhysicsDigest)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: traced pass emitted %d metrics, want %d", def.name, len(res.Metrics), len(perLayer))
		}
		na := map[string]bool{}
		for _, n := range naOn[def.name] {
			na[n] = true
		}
		for _, d := range perLayer {
			v := res.Metrics[d.name]
			if v.NA != na[d.name] {
				t.Errorf("%s: %s n/a = %v, want %v", def.name, d.name, v.NA, na[d.name])
			}
			// At toy size the profiler may see nothing, the GC may not run and
			// one size gives no exponent; every other host number is a time.
			zeroOK := strings.HasPrefix(d.name, "cpu.") || strings.HasPrefix(d.name, "runtime.") || strings.HasSuffix(d.name, "_scale_exp")
			if d.clock == host && !v.NA && !zeroOK && v.Value <= 0 {
				t.Errorf("%s: host metric %s = %v", def.name, d.name, v.Value)
			}
		}
		doc, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+def.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.ValidateTraceEvents(doc); err != nil {
			t.Errorf("%s: %v", def.name, err)
		}
		for _, want := range []string{`"workload"`, `"op"`, `"engine-run"`, `"check"`, `"probes"`, `"probe:sim.handoff_ns@16"`, `"rep"`} {
			if !bytes.Contains(doc, []byte(`"name": `+want)) {
				t.Errorf("%s: trace has no span named %s", def.name, want)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "engine-run", Start: 1 * ms, End: 8 * ms},
		{ID: 3, Parent: 2, Name: "Tile.Write", Start: 2 * ms, End: 7 * ms},
		{ID: 4, Parent: 1, Name: "check", Start: 8 * ms, End: 9 * ms},
	}}
	_, total, self, _ := tr.selfTimes()
	if total["op"] != 10*ms || self["op"] != 2*ms || self["engine-run"] != 2*ms || self["Tile.Write"] != 5*ms {
		t.Errorf("total %v self %v", total, self)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"sim", []string{"repro/internal/sim.(*Proc).Sync", "repro/internal/mpi.(*Comm).send"}},
		{"storage", []string{"repro/internal/ldlm.(*Namespace).Enqueue"}},
		{"workload", []string{"repro/internal/experiments.Preset.run.func1"}},
		{"other", []string{"sort.insertionSort", "repro/internal/mpi.(*Comm).Split"}},
		{"other", []string{"repro/internal/cluster.(*Cluster).Transfer"}},
		{"runtime_gc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "repro/internal/mpi.encInt64s"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime_sched", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}},
		{"runtime_sched", []string{"runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Proc).yield"}},
		{"mpi", []string{"runtime.memmove", "repro/internal/mpi.decInt64sInto"}},
		{"mpiio", []string{"runtime.mapaccess2_fast64", "repro/internal/mpiio.(*File).buildPlan"}},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// A real profile from runtime/pprof decodes, and its shares sum to 1.
func TestCPUSharesOfARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	shares, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Skipf("no usable profile on this host (%v, x=%v)", err, x)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 || total == 0 {
		t.Errorf("shares of %d samples sum to %v: %v", total, sum, shares)
	}
	if shares["other"] < 0.5 {
		t.Errorf("a math.Sqrt loop in package main is %v other, want most of it", shares["other"])
	}
}
