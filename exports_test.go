package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os/exec"
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
				switch n := n.(type) {
				case *ast.InterfaceType:
					// A method named in an interface is declared there,
					// not called: it needs a caller of its own.
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							declared[id] = true
						}
					}
				case *ast.Ident:
					if !declared[n] {
						refs[n.Name] = true
					}
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

// keptUnset names the exported struct fields under internal/ that no non-test
// code sets but that stay on purpose, each with its reason. Keys are
// package.Type.Field.
var keptUnset = map[string]string{
	"core.Options.ForceIntermediate":   "core's tests and fuzz targets force the intermediate-view path with it",
	"core.Options.DisableIntermediate": "ablation knob root BenchmarkAblation* sets; DESIGN §5 cites it",
	"core.Options.NaiveAggregators":    "ablation knob root BenchmarkAblation* sets; DESIGN §5 cites it",
	"mpiio.Hints.AlltoallvAlgo":        "ablation knob root BenchmarkAblation* sets; DESIGN §5 cites it",
	"mpiio.Hints.IndBufferSize":        "data-sieving window, the sieving column of ROADMAP 3c",
	"experiments.Preset.Workers":       "bench/ shim until slice B",
	"tenancy.Trace.Workers":            "bench/ shim until slice B",
	"job.Spec.Compute":                 "set by JSON spec decoding",
	"tenancy.Trace.BBCapacity":         "set by JSON trace decoding",
	"tenancy.Trace.BBDrainBW":          "set by JSON trace decoding",
	"tenancy.Trace.IntraNode":          "set by JSON trace decoding",
	"tenancy.Trace.PEsPerNode":         "set by JSON trace decoding",
	"datatype.Field.Off":               "only NewStruct's tests build struct types",
	"datatype.Field.T":                 "only NewStruct's tests build struct types",
	"perf.BenchPoint.Name":             "legacy BENCH_N report, kept until that chain is retired",
	"perf.BenchPoint.NsPerOp":          "legacy BENCH_N report, kept until that chain is retired",
	"perf.BenchPoint.AllocsPerOp":      "legacy BENCH_N report, kept until that chain is retired",
	"perf.BenchPoint.BytesPerOp":       "legacy BENCH_N report, kept until that chain is retired",
	"perf.BenchPoint.Metrics":          "legacy BENCH_N report, kept until that chain is retired",
}

// TestEveryFieldIsSet fails on any exported field of an exported struct
// under internal/ that no non-test code in internal/, cmd/ or examples/
// sets, unless keptUnset names it: a setting nothing sets is a constant
// wearing a knob. A field counts as set when it is assigned or
// incremented (itself, or an index or selector rooted at it), has its
// address taken, receives a pointer-method call, or appears in a keyed or
// unkeyed composite literal. Packages that import "testing" are test
// support and neither declare nor set fields here.
func TestEveryFieldIsSet(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f",
		"{{.ImportPath}}|{{.Dir}}|{{.Standard}}|{{join .GoFiles \",\"}}",
		"./internal/...", "./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	std := importer.Default()
	pkgs := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Uses:       map[*ast.Ident]types.Object{},
	}
	declared := map[*types.Var]string{} // census field -> package.Type.Field
	set := map[*types.Var]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.SplitN(line, "|", 4)
		path, dir, names := parts[0], parts[1], parts[3]
		if parts[2] == "true" {
			continue
		}
		var files []*ast.File
		support := false
		for _, name := range strings.Split(names, ",") {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range f.Imports {
				support = support || s.Path.Value == `"testing"`
			}
			files = append(files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		pkgs[path] = pkg
		if support {
			continue
		}
		if strings.HasPrefix(path, "repro/internal/") {
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						declared[f] = pkg.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markRooted(info, lhs, set)
					}
				case *ast.IncDecStmt:
					markRooted(info, n.X, set)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markRooted(info, n.X, set)
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil || sel.Kind() != types.MethodVal {
						break
					}
					recv := sel.Obj().Type().(*types.Signature).Recv().Type()
					if _, ptr := recv.(*types.Pointer); ptr {
						if _, isPtr := info.Types[n.X].Type.Underlying().(*types.Pointer); !isPtr {
							markRooted(info, n.X, set)
						}
					}
				case *ast.CompositeLit:
					typ := info.Types[n].Type
					if p, ok := typ.Underlying().(*types.Pointer); ok {
						typ = p.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								set[v.Origin()] = true
							}
						} else if i < st.NumFields() {
							set[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	var unset []string
	for f, name := range declared {
		_, kept := keptUnset[name]
		if !set[f] && !kept {
			unset = append(unset, fset.Position(f.Pos()).String()+": "+name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("no non-test code sets %s", u)
	}
	names := map[string]bool{}
	for f, name := range declared {
		names[name] = set[f]
	}
	for name := range keptUnset {
		if isSet, ok := names[name]; !ok {
			t.Errorf("keptUnset names %s, which no longer exists", name)
		} else if isSet {
			t.Errorf("keptUnset names %s, which non-test code sets", name)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// markRooted marks every struct field on the selector/index/deref chain of
// an addressable expression: setting x.A.B[i] sets both A and B.
func markRooted(info *types.Info, e ast.Expr, set map[*types.Var]bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				set[sel.Obj().(*types.Var).Origin()] = true
			}
			e = x.X
		default:
			return
		}
	}
}
