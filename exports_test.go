package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptWithoutCaller names the exported funcs and methods that no non-test
// code calls but that stay on purpose, each with its reason.
var keptWithoutCaller = map[string]string{
	"Alltoall":                    "mpi: message-based oracle for TestAlltoallIntsMatchesMessageAlltoall",
	"ReadAtSieved":                "mpiio: data sieving, the sieving column of ROADMAP 3c",
	"WriteAtSieved":               "mpiio: data sieving, the sieving column of ROADMAP 3c",
	"DecodeList":                  "job: spec lists for ROADMAP 8a",
	"RunPlanWorkers":              "mpi: deprecated shim bench/ compiles against until slice B",
	"Verify":                      "workload.IOR and CheckpointBurst: deprecated shims bench/ compiles against until slice B",
	"VerifyTile":                  "experiments: deprecated shim bench/ compiles against until slice B",
	"NewBenchReport":              "perf: kept until the legacy BENCH_N chain is retired",
	"ReadBenchReport":             "perf: kept until the legacy BENCH_N chain is retired",
	"BusyTime":                    "sim.Resource: tests read it to check live code",
	"NextFree":                    "sim.Resource: tests read it to check live code",
	"NumIntervals":                "sim.Resource: tests read it to check live code",
	"Fired":                       "sim.Pending: tests read it to check live code",
	"PendingOps":                  "sim.Proc: tests read it to check live code",
	"Done":                        "nbio.Request: tests read it to check live code",
	"Test":                        "nbio.Request: tests read it to check live code",
	"Digests":                     "storage.Ledger: tests read it to check live code",
	"LostEvents":                  "storage.Ledger: tests read it to check live code",
	"RedumpPlan":                  "storage: tests read it to check live code",
	"Holders":                     "ldlm: tests read it to check live code",
	"NewStruct":                   "datatype: tests build struct types with it",
	"Create":                      "hdf5lite: tests build files with it",
	"Attr":                        "hdf5lite: tests read it to check live code",
	"HeaderBytes":                 "hdf5lite: tests read it to check live code",
	"Storage":                     "mpiio.File: tests read it to check live code",
	"Leader":                      "mpi.Hierarchy: tests read it to check live code",
	"JobIDs":                      "qos: tests read it to check live code",
	"SetMax":                      "obs.Gauge: tests read it to check live code",
	"DefaultStripe":               "lustre: tests build files with it",
	"CheckpointBurstUnderFailure": "experiments: runner that goldens and EXPERIMENTS.md pin",
	"IntraNodeSweep":              "experiments: runner that goldens and EXPERIMENTS.md pin",
	"BTUnderFailure":              "experiments: runner that goldens and EXPERIMENTS.md pin",
}

// TestEveryExportHasACaller fails on any exported func or method under
// cmd/, examples/, internal/ or bench/ whose name no non-test file
// references, unless keptWithoutCaller names it: a capability only its own
// tests reach is surface nothing runs.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string][]string{} // exported name -> declaration sites
	refs := map[string]bool{}
	for _, root := range []string{"cmd", "examples", "internal", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"testing"` {
					return nil // a test-support package such as storagetest
				}
			}
			declared := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				declared[fn.Name] = true
				decls[fn.Name.Name] = append(decls[fn.Name.Name], fset.Position(fn.Pos()).String())
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					refs[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unreached []string
	for name, sites := range decls {
		if refs[name] {
			continue
		}
		if _, ok := keptWithoutCaller[name]; ok {
			continue
		}
		for _, s := range sites {
			unreached = append(unreached, s+": "+name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no non-test caller: %s", u)
	}
	for name := range keptWithoutCaller {
		if len(decls[name]) == 0 {
			t.Errorf("keptWithoutCaller names %s, which no longer exists", name)
		}
	}
}
