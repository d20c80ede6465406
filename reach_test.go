package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The reachability census behind `make reach`. The target builds every
// tool with coverage, runs the invocations reach.txt lists under one
// GOCOVERDIR, converts that to a text profile (REACH_RUN), takes a second
// profile from the tier-1 tests (REACH_TEST), and hands both to TestReach.
// Each internal/ statement is then run (some documented invocation executes
// it), test-only (only tests do) or neither. A function no documented
// invocation enters needs a kept line in reach.txt saying why it stays.

// Statement classes, in report column order.
const (
	classRun = iota
	classTestOnly
	classNeither
)

// keptTags are the reasons an unreached function may stay: a catalog fault
// plan reaches it, a named ROADMAP item will use it, it is a test oracle,
// it is a failure report that only a failing run prints, or it is one
// implementation of an interface method that runs call on another.
var keptTags = []string{"fault", "roadmap", "oracle", "report", "contract"}

// coverBlock is one basic block of a text cover profile; file is in
// import-path form ("repro/internal/sim/sim.go").
type coverBlock struct {
	file           string
	sl, sc, el, ec int
}

// coverCount is a block's statement count and whether any copy of it ran.
type coverCount struct {
	stmts int
	hit   bool
}

var coverLine = regexp.MustCompile(`^(.+):(\d+)\.(\d+),(\d+)\.(\d+) (\d+) (\d+)$`)

// parseCover reads a text cover profile, as `go test -coverprofile` and
// `go tool covdata textfmt` write it. Profiles merged from several
// binaries repeat blocks; a block is hit when any copy of it is.
func parseCover(r io.Reader) (map[coverBlock]coverCount, error) {
	blocks := map[coverBlock]coverCount{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		m := coverLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("bad cover profile line %q", line)
		}
		n := make([]int, 6)
		for i := range n {
			n[i], _ = strconv.Atoi(m[i+2])
		}
		b := coverBlock{m[1], n[0], n[1], n[2], n[3]}
		c := blocks[b]
		blocks[b] = coverCount{stmts: n[4], hit: c.hit || n[5] > 0}
	}
	return blocks, sc.Err()
}

// funcSpan is one function declaration's source extent. name is
// "pkg.Func" or "pkg.Type.Method", pkg relative to internal/.
type funcSpan struct {
	name           string
	file           string
	sl, sc, el, ec int
}

func (f funcSpan) holds(b coverBlock) bool {
	return b.file == f.file &&
		(b.sl > f.sl || b.sl == f.sl && b.sc >= f.sc) &&
		(b.sl < f.el || b.sl == f.el && b.sc <= f.ec)
}

// internalFuncs parses every non-test file under dir (the repo's
// internal/) and returns its function spans. Packages that import
// "testing" are test support and stay out of the census.
func internalFuncs(dir string) ([]funcSpan, error) {
	var spans []funcSpan
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, p, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		for _, pkg := range pkgs {
			var pkgSpans []funcSpan
			support := false
			for name, f := range pkg.Files {
				for _, imp := range f.Imports {
					support = support || imp.Path.Value == `"testing"`
				}
				file := "repro/internal/" + filepath.ToSlash(filepath.Join(rel, filepath.Base(name)))
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					s, e := fset.Position(fn.Pos()), fset.Position(fn.End())
					pkgSpans = append(pkgSpans, funcSpan{
						name: filepath.ToSlash(rel) + "." + funcName(fn),
						file: file,
						sl:   s.Line, sc: s.Column, el: e.Line, ec: e.Column,
					})
				}
			}
			if !support {
				spans = append(spans, pkgSpans...)
			}
		}
		return nil
	})
	return spans, err
}

// funcName is fn's name, prefixed by its receiver's base type for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fn.Name.Name
		default:
			return fn.Name.Name
		}
	}
}

// parseReachList reads reach.txt's "kept <function> <tag>: <reason>"
// lines. Its "run <command>" lines are the Makefile's.
func parseReachList(r io.Reader) (map[string]string, error) {
	kept := map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		verb, rest, _ := strings.Cut(line, " ")
		switch verb {
		case "", "run":
		case "kept":
			name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
			reason = strings.TrimSpace(reason)
			tag, _, ok := strings.Cut(reason, ":")
			if f := strings.Fields(tag); !ok || len(f) == 0 || !slices.Contains(keptTags, f[0]) {
				return nil, fmt.Errorf("reach.txt:%d: kept %s needs a reason tagged one of %v", n, name, keptTags)
			}
			if _, dup := kept[name]; dup {
				return nil, fmt.Errorf("reach.txt:%d: kept %s twice", n, name)
			}
			kept[name] = reason
		default:
			if !strings.HasPrefix(verb, "#") {
				return nil, fmt.Errorf("reach.txt:%d: unknown line %q", n, line)
			}
		}
	}
	return kept, sc.Err()
}

// census is the classifier's verdict: statements per package and class,
// and every function-level problem with the kept list.
type census struct {
	stmts    map[string]*[3]int
	problems []string
}

// classify labels every block of a census function run, test-only or
// neither, and checks the kept list: a function no run enters needs a
// kept line, and a kept line must name an existing function no run
// enters.
func classify(run, test map[coverBlock]coverCount, funcs []funcSpan, kept map[string]string) census {
	byFile := map[string][]funcSpan{}
	for _, f := range funcs {
		byFile[f.file] = append(byFile[f.file], f)
	}
	c := census{stmts: map[string]*[3]int{}}
	seen, entered := map[string]bool{}, map[string]bool{}
	visit := func(b coverBlock, stmts int) {
		spans, ok := byFile[b.file]
		if !ok {
			return
		}
		class := classNeither
		switch {
		case run[b].hit:
			class = classRun
		case test[b].hit:
			class = classTestOnly
		}
		pkg := path.Dir(strings.TrimPrefix(b.file, "repro/internal/"))
		if c.stmts[pkg] == nil {
			c.stmts[pkg] = new([3]int)
		}
		c.stmts[pkg][class] += stmts
		for _, f := range spans {
			if f.holds(b) {
				seen[f.name] = true
				entered[f.name] = entered[f.name] || class == classRun
				break
			}
		}
	}
	for b, n := range test {
		visit(b, n.stmts)
	}
	for b, n := range run {
		if _, dup := test[b]; !dup {
			visit(b, n.stmts)
		}
	}
	for name := range seen {
		if _, ok := kept[name]; !entered[name] && !ok {
			c.problems = append(c.problems, name+": no documented run enters it, and reach.txt keeps no line for it")
		}
	}
	for name := range kept {
		switch {
		case !seen[name]:
			c.problems = append(c.problems, name+": kept in reach.txt, but no such function exists")
		case entered[name]:
			c.problems = append(c.problems, name+": kept in reach.txt, but a documented run enters it now")
		}
	}
	sort.Strings(c.problems)
	return c
}

// readLoc parses `make loc` output into non-test lines per internal/
// package.
func readLoc(r io.Reader) map[string]int {
	loc := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && strings.HasPrefix(f[1], "./internal/") {
			loc[strings.TrimPrefix(f[1], "./internal/")], _ = strconv.Atoi(f[0])
		}
	}
	return loc
}

// TestReach prints the census table and fails on every kept-list problem.
// It runs only when `make reach` hands it the two profiles.
func TestReach(t *testing.T) {
	runPath, testPath := os.Getenv("REACH_RUN"), os.Getenv("REACH_TEST")
	if runPath == "" || testPath == "" {
		t.Skip("run by make reach, which sets REACH_RUN and REACH_TEST")
	}
	profile := func(p string) map[coverBlock]coverCount {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		blocks, err := parseCover(f)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		return blocks
	}
	run, test := profile(runPath), profile(testPath)
	list, err := os.Open("reach.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Close()
	kept, err := parseReachList(list)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := internalFuncs("internal")
	if err != nil {
		t.Fatal(err)
	}
	loc := map[string]int{}
	if p := os.Getenv("REACH_LOC"); p != "" {
		if f, err := os.Open(p); err == nil {
			loc = readLoc(f)
			f.Close()
		}
	}
	c := classify(run, test, funcs, kept)
	pkgs := make([]string, 0, len(c.stmts))
	for p := range c.stmts {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	var sum [3]int
	var sumLoc int
	fmt.Printf("%-12s %6s %6s %9s %8s\n", "internal/", "loc", "run", "test-only", "neither")
	for _, p := range pkgs {
		n := c.stmts[p]
		fmt.Printf("%-12s %6d %6d %9d %8d\n", p, loc[p], n[classRun], n[classTestOnly], n[classNeither])
		for i := range sum {
			sum[i] += n[i]
		}
		sumLoc += loc[p]
	}
	total := sum[classRun] + sum[classTestOnly] + sum[classNeither]
	fmt.Printf("%-12s %6d %6d %9d %8d\n", "total", sumLoc, sum[classRun], sum[classTestOnly], sum[classNeither])
	if total > 0 {
		pct := func(n int) float64 { return 100 * float64(n) / float64(total) }
		fmt.Printf("%-12s %6s %5.1f%% %8.1f%% %7.1f%%\n", "share", "", pct(sum[classRun]), pct(sum[classTestOnly]), pct(sum[classNeither]))
	}
	fmt.Printf("%d functions kept without a documented run\n", len(kept))
	for _, p := range c.problems {
		t.Error(p)
	}
}

// TestReachClassifier pins the classifier on synthetic profiles: a block
// a documented run hits is run, one only tests hit is test-only, one
// nothing hits is neither, and each kind of kept-list mismatch is caught.
func TestReachClassifier(t *testing.T) {
	const file = "repro/internal/x/x.go"
	funcs := []funcSpan{
		{name: "x.Ran", file: file, sl: 1, sc: 1, el: 5, ec: 2},
		{name: "x.Tested", file: file, sl: 7, sc: 1, el: 9, ec: 2},
		{name: "x.Dead", file: file, sl: 11, sc: 1, el: 13, ec: 2},
	}
	profile := func(s string) map[coverBlock]coverCount {
		blocks, err := parseCover(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	// Ran has two blocks, only one of which the run hits: a function is
	// entered when any of its blocks runs. Repeated lines (several
	// binaries' profiles merged) count as hit when any copy is.
	run := profile("mode: set\n" +
		file + ":1.20,3.3 2 1\n" +
		file + ":3.3,5.2 1 0\n" +
		file + ":7.20,9.2 1 0\n" +
		file + ":11.20,13.2 3 0\n" +
		"repro/cmd/y/main.go:1.1,2.2 4 1\n")
	test := profile("mode: set\n" +
		file + ":1.20,3.3 2 0\n" +
		file + ":3.3,5.2 1 0\n" +
		file + ":7.20,9.2 1 0\n" +
		file + ":7.20,9.2 1 1\n" +
		file + ":11.20,13.2 3 0\n")
	for _, tc := range []struct {
		name     string
		kept     map[string]string
		problems []string
	}{
		{"unkept", nil, []string{
			"x.Dead: no documented run enters it, and reach.txt keeps no line for it",
			"x.Tested: no documented run enters it, and reach.txt keeps no line for it",
		}},
		{"kept", map[string]string{"x.Tested": "oracle: o", "x.Dead": "report: r"}, nil},
		{"stale", map[string]string{"x.Tested": "oracle: o", "x.Dead": "report: r", "x.Ran": "roadmap 1: r", "x.Gone": "fault: f"}, []string{
			"x.Gone: kept in reach.txt, but no such function exists",
			"x.Ran: kept in reach.txt, but a documented run enters it now",
		}},
	} {
		c := classify(run, test, funcs, tc.kept)
		if got, want := *c.stmts["x"], [3]int{2, 1, 4}; got != want {
			t.Errorf("%s: run/test-only/neither = %v, want %v", tc.name, got, want)
		}
		if len(c.stmts) != 1 {
			t.Errorf("%s: census covers %d packages, want only internal/x", tc.name, len(c.stmts))
		}
		if strings.Join(c.problems, "\n") != strings.Join(tc.problems, "\n") {
			t.Errorf("%s: problems\n%s\nwant\n%s", tc.name, strings.Join(c.problems, "\n"), strings.Join(tc.problems, "\n"))
		}
	}
	for _, bad := range []string{"kept x.F because", "kept x.F vibes: none", "kept x.F oracle: a\nkept x.F oracle: b", "walk x"} {
		if _, err := parseReachList(strings.NewReader(bad)); err == nil {
			t.Errorf("parseReachList(%q) accepted it", bad)
		}
	}
}
