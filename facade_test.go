package gemini

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

// TestFacadeNamesHaveCallers keeps the facade trimmed to its callers.
// Every exported name in gemini.go must be referenced as gemini.<Name>
// by a file under examples/ or cmd/, or appear in the declaration of a
// name that is (a kept function's signature needs its types), or share
// a const block with one (a constant group stays whole).
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "gemini.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Each exported name, the identifiers its declaration mentions, and
	// the const block it belongs to (-1 outside one).
	type decl struct {
		refs  map[string]bool
		block int
	}
	decls := map[string]*decl{}
	idents := func(n ast.Node) map[string]bool {
		refs := map[string]bool{}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				refs[id.Name] = true
			}
			return true
		})
		return refs
	}
	for i, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = &decl{refs: idents(d), block: -1}
			}
		case *ast.GenDecl:
			block := -1
			if d.Tok == token.CONST {
				block = i
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						decls[s.Name.Name] = &decl{refs: idents(s), block: block}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							decls[n.Name] = &decl{refs: idents(s), block: block}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			src, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(src, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "gemini" {
						used[sel.Sel.Name] = true
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

	// Close the used set under "named by a used declaration" and "in a
	// used const block".
	for changed := true; changed; {
		changed = false
		for name, d := range decls {
			if used[name] {
				continue
			}
			for other, od := range decls {
				if used[other] && (od.refs[name] || (d.block >= 0 && d.block == od.block)) {
					used[name], changed = true, true
					break
				}
			}
		}
	}

	var dead []string
	for name := range decls {
		if !used[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d facade names have no caller under examples/ or cmd/: %s",
			len(dead), strings.Join(dead, ", "))
	}
}

// TestInternalFuncsHaveCallers keeps internal/ trimmed to its callers.
// Every exported function or method declared under internal/ must be
// referenced by some non-test file of the module (the root package,
// cmd/, examples/, internal/) or of the benchmark module, outside its
// own declaration. A function counts as referenced when its package
// names it bare or another file selects it through the package's
// import; a method counts when any selector that is not a package
// qualifier names it. MustX is exempt while X is referenced, and each
// keepInternal entry says why it stays without a non-test caller.
func TestInternalFuncsHaveCallers(t *testing.T) {
	type fn struct {
		key  string // "<dir>.<Name>" or "<dir>.<Recv>.<Name>"
		dir  string
		recv string
		name string
		decl *ast.FuncDecl
	}
	type ref struct {
		dir string // package of a function reference; "" for a method
		in  *ast.FuncDecl
	}
	var funcs []fn
	refs := map[string][]ref{} // by referenced name

	fset := token.NewFileSet()
	parse := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgs := map[string]string{} // import name → module dir, "" outside the module
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = ""
			if rest, ok := strings.CutPrefix(p, "gemini/"); ok {
				pkgs[name] = rest
			}
		}
		for _, d := range f.Decls {
			fd, _ := d.(*ast.FuncDecl)
			if fd != nil && fd.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
				recv := ""
				if fd.Recv != nil {
					typ := fd.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if idx, ok := typ.(*ast.IndexExpr); ok {
						typ = idx.X
					}
					recv = typ.(*ast.Ident).Name + "."
				}
				funcs = append(funcs, fn{filepath.Base(dir) + "." + recv + fd.Name.Name, dir, recv, fd.Name.Name, fd})
			}
			sels := map[*ast.Ident]bool{}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sels[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if pdir, ok := pkgs[x.Name]; ok {
							refs[n.Sel.Name] = append(refs[n.Sel.Name], ref{pdir, fd})
							return true
						}
					}
					refs[n.Sel.Name] = append(refs[n.Sel.Name], ref{"", fd})
				case *ast.Ident:
					if !sels[n] && (fd == nil || n != fd.Name) {
						refs[n.Name] = append(refs[n.Name], ref{dir, fd})
					}
				}
				return true
			})
		}
		return nil
	}
	for _, root := range []string{".", "cmd", "examples", "internal", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (root == "." || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			return parse(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	referenced := func(f fn) bool {
		for _, r := range refs[f.name] {
			if r.in != f.decl && (f.recv != "" && r.dir == "" || f.recv == "" && r.dir == f.dir) {
				return true
			}
		}
		return false
	}
	declared := map[string]bool{}
	for _, f := range funcs {
		declared[f.key] = true
	}
	for key := range keepInternal {
		if !declared[key] {
			t.Errorf("keepInternal lists %s, which is not an exported internal func", key)
		}
	}
	var dead []string
	for _, f := range funcs {
		if _, ok := keepInternal[f.key]; ok || referenced(f) {
			continue
		}
		if x, ok := strings.CutPrefix(f.name, "Must"); ok && referenced(fn{dir: f.dir, recv: f.recv, name: x}) {
			continue
		}
		dead = append(dead, f.key)
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d exported internal funcs have no non-test caller: %s", len(dead), strings.Join(dead, ", "))
	}
}

// Reasons an exported internal func stays without a non-test caller.
const (
	keepReference = "reference a test compares the production path against"
	keepObserve   = "accessor through which tests observe state"
	keepPaper     = "closed form a test pins to the paper's numbers"
	keepStep      = "engine step primitive for driving many control planes from one loop"
)

// keepInternal lists exported internal funcs that stay without a
// non-test caller, each with the reason it stays.
var keepInternal = map[string]string{
	"placement.ExactProbability":                  keepReference,
	"placement.GroupExact":                        keepReference,
	"placement.RingExact":                         keepReference,
	"placement.Placement.Survives":                keepReference,
	"failure.Schedule.SimultaneousGroups":         keepReference,
	"failure.Schedule.SimultaneousHardwareGroups": keepReference,
	"training.ProfileFromExecution":               keepReference,
	"netsim.StartRingRun":                         keepReference,

	"failure.source.Int63": "math/rand.Source interface method",

	"simclock.Engine.Step":     keepStep,
	"simclock.Engine.PeekTime": keepStep,

	"agent.System.SetDataPlane": "byte-level data plane the integrity tests drive",

	"netsim.Copier.Bandwidth":                 keepObserve,
	"netsim.Copier.QueueLen":                  keepObserve,
	"netsim.Fabric.ActiveFlows":               keepObserve,
	"netsim.Flow.FinishedAt":                  keepObserve,
	"netsim.Flow.Rate":                        keepObserve,
	"netsim.Flow.Remaining":                   keepObserve,
	"netsim.Flow.StartedAt":                   keepObserve,
	"netsim.RingRun.Elapsed":                  keepObserve,
	"cloud.Operator.Requests":                 keepObserve,
	"cloud.Operator.StandbyAvailable":         keepObserve,
	"cloud.Operator.ViaStandby":               keepObserve,
	"simclock.Ticker.Stopped":                 keepObserve,
	"trace.Track.OpenSpans":                   keepObserve,
	"profile.Profile.TotalIdle":               keepObserve,
	"placement.Placement.CPUMemoryPerMachine": keepObserve,

	"metrics.EffectiveRatio":                        keepPaper,
	"metrics.WastedTimeModel.Best":                  keepPaper,
	"metrics.WastedTimeModel.Worst":                 keepPaper,
	"model.Config.DerivedParams":                    keepPaper,
	"model.Config.FLOPsPerIteration":                keepPaper,
	"model.Sharding.ShardBytesPerGPU":               keepPaper,
	"failure.Model.ExpectedSimultaneousProbability": keepPaper,
	"schedule.AutoGamma":                            keepPaper,
}
