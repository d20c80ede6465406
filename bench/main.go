// Command bench is the repository's benchmark: four fixed workloads, five
// end-to-end metrics each, every output verified byte-exact, and a separate
// traced pass that gives every layer a number. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
)

// processStart is as close to process start as Go code gets; setup_s and
// every span are measured from it.
var processStart = time.Now()

const schema = "parcoll-bench/v2"

// manifest says what produced a result, so that two files can be compared
// knowing what differs between them.
type manifest struct {
	Schema     string  `json:"schema"`
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Geometry   string  `json:"geometry"`
}

// runResult is one run of one workload in one pass.
type runResult struct {
	Workload      string                 `json:"workload"`
	Trace         bool                   `json:"trace"`
	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	Ops           map[string]int         `json:"ops"` // op counts by kind: warmup, timed, traced, ...
	PhysicsDigest string                 `json:"physics_digest"`
	Metrics       map[string]metricValue `json:"metrics"`
	WallMs        []float64              `json:"wall_ms"` // the timed ops, one sample each
	TailPct       float64                `json:"wall_tail_pct,omitempty"`
	CPUSamples    int64                  `json:"cpu_samples,omitempty"`
	ChildWallS    float64                `json:"child_wall_s,omitempty"` // set by the parent that spawned the run
	Errors        []string               `json:"errors,omitempty"`
}

type resultFile struct {
	Manifest manifest    `json:"manifest"`
	Runs     []runResult `json:"runs"`
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	g       geometry
	setups  int // set-ups per untraced run; setup_s is their median
	warmups int // untimed ops per set-up: they fill the perf arena pools
	minOps  int // timed ops per loop, however long they take
	// The traced pass runs at least tracedOps ops under the CPU profile and
	// keeps going until profileSecs have passed, so that a short op still
	// gives the profile a few hundred samples.
	tracedOps   int
	profileSecs float64
	outDir      string    // where the traced pass writes trace-<workload>.json
	log         io.Writer // the human-readable report
}

var (
	fullConfig  = config{g: full, setups: 3, warmups: 2, minOps: 3, tracedOps: 5, profileSecs: 3, log: os.Stdout}
	smokeConfig = config{g: smoke, trace: true, setups: 1, warmups: 1, minOps: 1, tracedOps: 1, log: os.Stdout}
)

func main() {
	// The simulator's engines hand one goroutine the baton at a time; two
	// Ps let the runtime overlap GC and the parallel engine's second worker,
	// and the harness never asks for more.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (the driver's mode); empty runs all four, each in a child process")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: feeds the preset, job and trace seeds")
	flag.Float64Var(&o.seconds, "seconds", 15, "seconds of timed ops per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing and profiling off; 1: the per-layer pass")
	flag.StringVar(&o.out, "out", "", "also write the result file here (default with no -workload: out/result.json)")
	flag.IntVar(&o.runs, "runs", 1, "with no -workload: runs of each workload per pass")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload and probe once at toy size, traced, in this process")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload, out  string
	seed           int64
	seconds        float64
	trace, runs    int
	compare, smoke bool
}

func run(o options) error {
	dir := benchDir()
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		spec, err := readSpec(filepath.Join(dir, "..", "BENCHMARK.json"))
		if err != nil {
			return err
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), spec)
	case o.smoke:
		cfg := smokeConfig
		cfg.seed, cfg.outDir = o.seed, filepath.Join(dir, "out")
		for _, def := range workloads {
			if res := runWorkload(def, cfg); !res.Correct {
				return fmt.Errorf("smoke: %s: %s", def.name, strings.Join(res.Errors, "; "))
			}
		}
		return nil
	case o.workload == "":
		if o.out == "" {
			o.out = filepath.Join(dir, "out", "result.json")
		}
		return runAll(o)
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := fullConfig
	cfg.seed, cfg.seconds, cfg.trace, cfg.outDir = o.seed, o.seconds, o.trace == 1, filepath.Join(dir, "out")
	res := runWorkload(def, cfg)
	if o.out != "" {
		if err := writeResult(o.out, resultFile{Manifest: newManifest(cfg), Runs: []runResult{res}}); err != nil {
			return err
		}
	}
	// The driver reads the last line of standard output.
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, driverMetrics(res)})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// driverMetrics strips the n/a marks: the driver's line carries exactly a
// value and a unit per metric.
func driverMetrics(res runResult) map[string]metricValue {
	m := make(map[string]metricValue, len(res.Metrics))
	for k, v := range res.Metrics {
		m[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return m
}

func findWorkload(name string) (workloadDef, bool) {
	for _, def := range workloads {
		if def.name == name {
			return def, true
		}
	}
	return workloadDef{}, false
}

// benchDir is this package's directory: the working directory under
// `go run -C bench .` and `go test`, ./bench from the repository root.
func benchDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "bench"
	}
	return "."
}

func newManifest(cfg config) manifest {
	rev := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(b))
	}
	return manifest{
		Schema: schema, GitRev: rev, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, Geometry: cfg.g.name,
	}
}

func writeResult(path string, rf resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Manifest.Schema != schema {
		return rf, fmt.Errorf("%s: schema %q, want %q", path, rf.Manifest.Schema, schema)
	}
	return rf, nil
}

// runAll runs every workload, each run in a fresh child process so that
// heap and arena state do not leak from one to the next, one at a time.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(o.out), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var all resultFile
	passes := []int{0}
	if o.trace == 1 {
		passes = append(passes, 1)
	}
	for _, def := range workloads {
		for _, pass := range passes {
			for i := 0; i < o.runs; i++ {
				part := filepath.Join(tmp, "part.json")
				cmd := exec.Command(exe, "-workload", def.name, "-seed", strconv.FormatInt(o.seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(pass), "-out", part)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				t0 := time.Now()
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %d): %w", def.name, pass, err)
				}
				rf, err := readResult(part)
				if err != nil {
					return err
				}
				rf.Runs[0].ChildWallS = time.Since(t0).Seconds()
				all.Manifest = rf.Manifest
				all.Runs = append(all.Runs, rf.Runs[0])
			}
		}
	}
	if err := writeResult(o.out, all); err != nil {
		return err
	}
	printSummary(os.Stdout, all)
	fmt.Printf("\nresult file: %s\n", o.out)
	for _, r := range all.Runs {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d ops failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// --- one run -----------------------------------------------------------------

// harness runs ops and keeps the tally the result reports.
type harness struct {
	def    workloadDef
	cfg    config
	res    runResult
	digest string   // the first op's; every later op must reproduce it
	ref    opResult // the warm-up op run from the harness's own body
}

// runOp runs one op and times it; a panic becomes the op's error.
func runOp(f func() opResult) (o opResult, wall time.Duration) {
	t0 := time.Now()
	defer func() {
		if v := recover(); v != nil {
			o, wall = opResult{err: fmt.Errorf("panic: %v", v)}, time.Since(t0)
		}
	}()
	o = f()
	return o, time.Since(t0)
}

// judge counts an op and reports whether it passed: it must not have
// panicked, its in-run verification must hold, and its physics digest must
// equal the first op's.
func (h *harness) judge(kind string, o opResult) bool {
	h.res.Attempted++
	h.res.Ops[kind]++
	switch d := o.digest(); {
	case o.err != nil:
		h.failf("%s op: %v", kind, o.err)
	case h.digest == "":
		h.digest = d
		return true
	case d != h.digest:
		h.failf("%s op: physics digest %s differs from the first op's %s", kind, d, h.digest)
	default:
		return true
	}
	return false
}

func (h *harness) do(kind string, f func() opResult) (o opResult, wall time.Duration, ok bool) {
	o, wall = runOp(f)
	return o, wall, h.judge(kind, o)
}

func (h *harness) failf(format string, args ...any) {
	h.res.Failed++
	h.errorf(format, args...)
}

func (h *harness) errorf(format string, args ...any) {
	h.res.Correct = false
	if len(h.res.Errors) < 20 {
		h.res.Errors = append(h.res.Errors, fmt.Sprintf(format, args...))
	}
}

// setUp is everything before the first timed op: building the workload, the
// warm-up ops that fill the arena pools, and the byte-exact check step. The
// first warm-up op runs from the harness's own body: the same work, it shows
// in every run that the body the traced pass instruments is the op the
// runner runs (equal digests), and it supplies the op's virtual duration.
func (h *harness) setUp() *instance {
	inst := h.def.setup(h.cfg.seed, h.cfg.g)
	for i := 0; i < h.cfg.warmups; i++ {
		if i > 0 {
			h.do("warmup", func() opResult { return inst.op(1) })
		} else if o, _, ok := h.do("warmup", func() opResult { return inst.traced(nil, spanRef{}, nil) }); ok {
			h.ref = o
		}
	}
	if err := inst.check(); err != nil {
		h.errorf("check step: %v", err)
	}
	return inst
}

func (h *harness) set(name string, v float64) {
	h.res.Metrics[name] = metricValue{Value: v}
}

// timedOps runs the closed loop: one op at a time until the time is used
// up, at least minOps. It returns each op's wall time in ms and the
// runtime's memory counters across the loop.
func (h *harness) timedOps(inst *instance, seconds float64) (wallMs []float64, before, after runtime.MemStats) {
	runtime.GC()
	runtime.ReadMemStats(&before)
	for start := time.Now(); len(wallMs) < h.cfg.minOps || time.Since(start).Seconds() < seconds; {
		_, wall, _ := h.do("timed", func() opResult { return inst.op(1) })
		wallMs = append(wallMs, float64(wall.Nanoseconds())/1e6)
	}
	runtime.ReadMemStats(&after)
	return wallMs, before, after
}

func runWorkload(def workloadDef, cfg config) runResult {
	h := &harness{def: def, cfg: cfg}
	h.res = runResult{Workload: def.name, Trace: cfg.trace, Correct: true,
		Ops: map[string]int{}, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		h.tracedPass()
	} else {
		h.untracedPass()
	}
	// Exactly the contract's names, each with its unit; a per-layer metric
	// that does not exist on this workload is n/a.
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := h.res.Metrics[d.name]
		out[d.name] = metricValue{Value: v.Value, Unit: d.unit, NA: !ok}
	}
	h.res.Metrics = out
	h.res.PhysicsDigest = h.digest
	printRun(cfg.log, h.res)
	return h.res
}

func (h *harness) untracedPass() {
	setups := make([]float64, h.cfg.setups)
	var inst *instance
	for i := range setups {
		t0 := processStart // the first set-up includes process start
		if i > 0 {
			t0 = time.Now()
		}
		inst = h.setUp()
		setups[i] = time.Since(t0).Seconds()
	}
	wallMs, before, after := h.timedOps(inst, h.cfg.seconds)
	n := float64(len(wallMs))
	h.res.WallMs = wallMs
	h.set("wall_ms_per_op", median(wallMs))
	h.set("allocs_per_op", float64(after.Mallocs-before.Mallocs)/n)
	h.set("alloc_MB_per_op", float64(after.TotalAlloc-before.TotalAlloc)/mb/n)
	if h.ref.virtSecs > 0 {
		h.set("virt_bw_MBps", h.ref.virtBytes/h.ref.virtSecs/mb)
	}
	h.set("setup_s", median(setups))
}

func (h *harness) tracedPass() {
	tr := &tracer{workload: h.def.name}
	root := tr.begin("workload", spanRef{})
	s := tr.begin("set-up", root)
	inst := h.setUp()
	s.end()

	// Reference ops, tracing off: the wall-time distribution, the GC's
	// share, and the base the traced ops' overhead is measured against.
	s = tr.begin("untraced-ops", root)
	wallMs, before, after := h.timedOps(inst, h.cfg.seconds/3)
	s.end()
	n := float64(len(wallMs))
	q1, med, q3 := quartiles(wallMs)
	tailMs, tailPct := tail(wallMs)
	h.res.WallMs, h.res.TailPct = wallMs, tailPct
	h.set("harness.wall_ms_q1", q1)
	h.set("harness.wall_ms_q3", q3)
	h.set("harness.wall_ms_tail", tailMs)
	h.set("runtime.gc_cycles_per_op", float64(after.NumGC-before.NumGC)/n)
	h.set("runtime.gc_pause_ms_per_op", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/n)

	// Traced ops under a CPU profile: at least five, and for a short op as
	// many as give the profile a few hundred samples.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		h.errorf("cpu profile: %v", err)
	}
	var tracedMs []float64
	for start := time.Now(); len(tracedMs) < h.cfg.tracedOps || time.Since(start).Seconds() < h.cfg.profileSecs; {
		op := tr.begin("op", root)
		o, wall := runOp(func() opResult { return inst.traced(tr, op, nil) })
		c := tr.begin("check", op)
		ok := h.judge("traced", o)
		c.end()
		op.end()
		tracedMs = append(tracedMs, float64(wall.Nanoseconds())/1e6)
		if ok {
			h.layerMetrics(o, med)
		}
	}
	pprof.StopCPUProfile()
	h.set("harness.trace_overhead_ratio", median(tracedMs)/med)
	if shares, total, err := cpuShares(prof.Bytes()); err != nil {
		// A toy-size run can finish between two profiler ticks.
		if h.cfg.profileSecs > 0 {
			h.errorf("%v", err)
		}
		for _, b := range cpuBuckets {
			h.set("cpu."+b+"_share", 0)
		}
	} else {
		h.res.CPUSamples = total
		for _, b := range cpuBuckets {
			h.set("cpu."+b+"_share", shares[b])
		}
	}

	// One op with the ranks counting into a registry: exact mpi call and
	// message counts. tenancy.Run does not hand out its ranks.
	reg := obs.New()
	op := tr.begin("op:instrumented", root)
	if _, _, ok := h.do("instrumented", func() opResult { return inst.traced(tr, op, reg) }); ok {
		h.mpiCounts(reg)
	}
	op.end()

	// The same op on the two-worker parallel engine: physics must match
	// (do checks the digest), wall time is the ratio's numerator.
	if runtime.GOMAXPROCS(0) >= 2 {
		op = tr.begin("op:workers=2", root)
		if _, wall, ok := h.do("par2", func() opResult { return inst.op(2) }); ok {
			h.set("sim.par2_wall_ratio", float64(wall.Nanoseconds())/1e6/med)
		}
		op.end()
	}

	pb := &prober{tr: tr, parent: tr.begin("probes", root), seed: h.cfg.seed, g: h.cfg.g, vals: map[string]float64{}}
	if err := pb.all(); err != nil {
		h.errorf("%v", err)
	}
	pb.parent.end()
	for k, v := range pb.vals {
		h.set(k, v)
	}
	root.end()
	h.set("harness.peak_rss_MB", peakRSSMB())

	// Spans stayed in memory until here.
	doc, err := tr.chromeJSON()
	if err == nil {
		err = cli.ValidateTraceEvents(doc)
	}
	if err == nil {
		if err = os.MkdirAll(h.cfg.outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(h.cfg.outDir, "trace-"+h.def.name+".json"), doc, 0o644)
		}
	}
	if err != nil {
		h.errorf("trace file: %v", err)
	}
	printSpans(h.cfg.log, tr)
}

// layerMetrics records the per-layer numbers one traced op carries: its
// virtual results and the engine's exact counters.
func (h *harness) layerMetrics(o opResult, untracedMedianMs float64) {
	for k, v := range o.layer {
		h.set(k, v)
	}
	if st := o.stats; st != nil {
		h.set("sim.events_per_op", float64(st.Events()))
		h.set("sim.resumes_per_op", float64(st.Resumes.Value()))
		h.set("sim.sends_per_op", float64(st.Sends.Value()))
		h.set("sim.max_ready_depth", float64(st.MaxReadyDepth))
		h.set("sim.wildcard_scanned_per_op", float64(st.WildcardScanned.Value()))
		h.set("sim.events_per_s", float64(st.Events())/(untracedMedianMs/1e3))
	}
}

func (h *harness) mpiCounts(reg *obs.Registry) {
	snap := reg.Snapshot()
	var calls, msgs, bytes uint64
	for _, c := range snap.Counters {
		switch {
		case strings.HasPrefix(c.Name, "mpi.coll.") && strings.HasSuffix(c.Name, ".calls"):
			calls += c.Value
		case c.Name == "mpi.p2p.intra.msgs" || c.Name == "mpi.p2p.inter.msgs":
			msgs += c.Value
		case c.Name == "mpi.p2p.intra.bytes" || c.Name == "mpi.p2p.inter.bytes":
			bytes += c.Value
		}
	}
	if calls+msgs == 0 {
		return // the op did not expose its ranks: n/a
	}
	h.set("mpi.coll_calls_per_op", float64(calls))
	h.set("mpi.p2p_msgs_per_op", float64(msgs))
	h.set("mpi.p2p_MB_per_op", float64(bytes)/mb)
}

// peakRSSMB is the process's high-water resident set, from the kernel.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / mb
		}
	}
	return 0
}
