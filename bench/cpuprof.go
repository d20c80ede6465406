package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the gzipped protobuf that runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto): just enough to walk each
// sample's stack as function names. The module has no dependencies, so the
// full pprof package is not available.

// pbuf reads protobuf wire format.
type pbuf struct{ b []byte }

var errTruncated = errors.New("cpu profile: truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errTruncated
}

// field returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped over.
func (p *pbuf) field() (num int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("cpu profile: unsupported wire type %d", key&7)
	}
	return num, val, data, err
}

func (p *pbuf) skip(n int) error {
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// packed appends a repeated varint field's values, packed or not.
func packed(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// cpuSample is one stack, leaf first, with the number of times it was seen.
type cpuSample struct {
	stack []string
	count int64
}

// decodeCPUProfile parses a runtime/pprof CPU profile into samples whose
// stacks are function names, leaf first (inlined frames expanded).
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		msg := pbuf{data}
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = packed(s.locs, v, d)
				case 2:
					s.vals, err = packed(s.vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 {function_id = 1}
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4:
					line := pbuf{d}
					for len(line.b) > 0 {
						ln, lv, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			for len(msg.b) > 0 {
				n, v, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{count: int64(s.vals[0])} // value[0] = samples/count
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		if len(cs.stack) > 0 {
			out = append(out, cs)
		}
	}
	return out, nil
}

// cpuBuckets are the layers host CPU is attributed to, in print order. The
// ten shares sum to 1.
var cpuBuckets = []string{
	"runtime_sched", "runtime_gc", "sim", "mpi", "mpiio", "core",
	"datatype", "storage", "workload", "other",
}

// pkgBucket maps a repo package (path below repro/internal/) to its layer.
var pkgBucket = map[string]string{
	"sim": "sim", "mpi": "mpi", "mpiio": "mpiio", "core": "core", "datatype": "datatype",
	"storage": "storage", "lustre": "storage", "ldlm": "storage", "pvfs": "storage",
	"bb": "storage", "qos": "storage",
	"workload": "workload", "experiments": "workload", "tenancy": "workload", "job": "workload",
}

// funcPackage returns the import path of a pprof function name such as
// "repro/internal/sim.(*Proc).Sync" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// gcMarkers and schedMarkers name runtime functions whose presence anywhere
// in a stack says what the runtime was doing when the sample was taken.
var gcMarkers = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.sweepone", "runtime.wbBufFlush", "runtime.newobject",
	"runtime.makeslice", "runtime.growslice", "runtime.(*mheap).", "runtime.(*mcache).",
	"runtime.(*mcentral).", "runtime.newstack", "runtime.morestack", "runtime.malg", "runtime.stackalloc",
}

var schedMarkers = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.newproc", "runtime.Gosched",
	"runtime.semacquire", "runtime.semrelease", "runtime.acquireSudog", "runtime.releaseSudog",
}

func hasAny(stack []string, markers []string) bool {
	for _, f := range stack {
		for _, m := range markers {
			if strings.HasPrefix(f, m) {
				return true
			}
		}
	}
	return false
}

// bucketOf attributes one sample. The leaf function's package decides,
// except inside the Go runtime. There, a stack that passes through the
// allocator, the collector or stack growth is GC/malloc. A stack that
// passes through a channel operation, a park or a wake-up is the scheduler:
// that is what a hand-off between simulated procs costs. Any other runtime
// helper (memmove, map access, nanotime) is charged to the package that
// called it, since that package chose to copy or look up. A stack with no
// package frame at all is a runtime thread scheduling, stealing or asleep.
func bucketOf(stack []string) string {
	if leaf := funcPackage(stack[0]); !isRuntime(leaf) {
		return pkgLayer(leaf)
	}
	if hasAny(stack, gcMarkers) {
		return "runtime_gc"
	}
	if !hasAny(stack, schedMarkers) {
		for _, f := range stack[1:] {
			if p := funcPackage(f); !isRuntime(p) {
				return pkgLayer(p)
			}
		}
	}
	return "runtime_sched"
}

func pkgLayer(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		if b, ok := pkgBucket[rest]; ok {
			return b
		}
	}
	return "other"
}

// cpuShares buckets a profile's samples; the shares sum to 1. total is the
// number of samples, so a reader can judge the resolution.
func cpuShares(gz []byte) (shares map[string]float64, total int64, err error) {
	samples, err := decodeCPUProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	for _, s := range samples {
		counts[bucketOf(s.stack)] += s.count
		total += s.count
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile: no samples")
	}
	shares = make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = float64(counts[b]) / float64(total)
	}
	return shares, total, nil
}
