package gemini

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
// It type-checks every non-test package of the module (the root
// package, cmd/, examples/, internal/) and of the benchmark module, and
// requires each exported function or method declared under internal/ to
// be reached from them outside its own declaration. References resolve
// through go/types, so a call reaches exactly the function or method it
// names, never another that shares its name. A method also counts as
// reached when its type satisfies an interface the program can use that
// declares it: error, an interface declared in a program package or in
// a package one imports, or an interface an expression has as its type.
// MustX is exempt while X is reached. Each keepInternal entry says why
// it stays unreached; an entry that names no exported internal func, or
// one that is reached, fails the test.
func TestInternalFuncsHaveCallers(t *testing.T) {
	prog, err := programOnce()
	if err != nil {
		t.Fatal(err)
	}

	// Exported internal funcs by "<pkg>.<Name>" or "<pkg>.<Recv>.<Name>",
	// and every func's declaration.
	byKey := map[string]*types.Func{}
	decls := map[*types.Func]ast.Node{}
	for _, p := range prog {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := p.info.Defs[fd.Name].(*types.Func)
				decls[obj] = fd
				if !strings.HasPrefix(p.dir, "internal/") || !fd.Name.IsExported() {
					continue
				}
				key := p.pkg.Name() + "."
				if named := recvNamed(obj); named != nil {
					key += named.Obj().Name() + "."
				}
				byKey[key+obj.Name()] = obj
			}
		}
	}

	// A func is called when an identifier outside its own declaration
	// resolves to it (or to an instance of it).
	called := map[*types.Func]bool{}
	for _, p := range prog {
		for id, obj := range p.info.Uses {
			f, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			f = f.Origin()
			if d := decls[f]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue
			}
			called[f] = true
		}
	}
	ifaces := programInterfaces(prog)
	reached := func(f *types.Func) bool {
		if called[f] {
			return true
		}
		named := recvNamed(f)
		if named == nil || named.TypeParams().Len() > 0 {
			return false
		}
		for _, iface := range ifaces {
			if declaresMethod(iface, f.Name()) &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
		return false
	}

	for key := range keepInternal {
		if f, ok := byKey[key]; !ok {
			t.Errorf("keepInternal lists %s, which is not an exported internal func", key)
		} else if reached(f) {
			t.Errorf("keepInternal lists %s, which non-test code reaches", key)
		}
	}
	var dead []string
	for key, f := range byKey {
		if _, ok := keepInternal[key]; ok || reached(f) {
			continue
		}
		dot := strings.LastIndex(key, ".") + 1
		if x, ok := strings.CutPrefix(key[dot:], "Must"); ok {
			if base := byKey[key[:dot]+x]; base != nil && reached(base) {
				continue
			}
		}
		dead = append(dead, key)
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d exported internal funcs have no non-test caller: %s", len(dead), strings.Join(dead, ", "))
	}
}

// TestInternalFieldsHaveReaders keeps internal/ structs trimmed to what
// the program reads. Every exported field of a struct type declared at
// package level under internal/ must be read by the packages
// TestInternalFuncsHaveCallers loads: an identifier resolves to the
// field and is not the target of an assignment or an increment, nor a
// composite literal's key. Fields with a json tag (read through
// encoding/json) and embedded fields are skipped. Each keepFields entry
// says why its field stays unread; an entry that names no such field,
// or one that is read, fails the test.
func TestInternalFieldsHaveReaders(t *testing.T) {
	prog, err := programOnce()
	if err != nil {
		t.Fatal(err)
	}

	// Exported fields by "<pkg>.<Type>.<Field>", and every identifier
	// that only writes a field.
	byKey := map[string]*types.Var{}
	written := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	for _, p := range prog {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
				return true
			})
			if !strings.HasPrefix(p.dir, "internal/") {
				continue
			}
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`) {
							continue
						}
						for _, name := range field.Names {
							if name.IsExported() {
								byKey[p.pkg.Name()+"."+ts.Name.Name+"."+name.Name] = p.info.Defs[name].(*types.Var)
							}
						}
					}
				}
			}
		}
	}

	read := map[*types.Var]bool{}
	for _, p := range prog {
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[v.Origin()] = true
			}
		}
	}

	for key := range keepFields {
		if v, ok := byKey[key]; !ok {
			t.Errorf("keepFields lists %s, which is not an exported internal field", key)
		} else if read[v] {
			t.Errorf("keepFields lists %s, which non-test code reads", key)
		}
	}
	var dead []string
	for key, v := range byKey {
		if _, ok := keepFields[key]; !ok && !read[v] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d exported internal fields have no non-test reader: %s", len(dead), strings.Join(dead, ", "))
	}
}

// programOnce loads the program once for the tests that walk it.
var programOnce = sync.OnceValues(loadProgram)

// srcPkg is one type-checked non-test package.
type srcPkg struct {
	dir   string // slash path from the repo root
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loadProgram type-checks from source every non-test package under the
// root package, cmd/, examples/, internal/ and benchmark/, resolving
// gemini/... imports to the repo's directories and the standard library
// through the gc compiler's export data.
func loadProgram() ([]*srcPkg, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	loaded := map[string]*srcPkg{}
	var prog []*srcPkg
	var load func(dir string) (*srcPkg, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path != "gemini" && !strings.HasPrefix(path, "gemini/") {
			return std.Import(path)
		}
		dir := "."
		if path != "gemini" {
			dir = strings.TrimPrefix(path, "gemini/")
		}
		p, err := load(dir)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	})
	load = func(dir string) (*srcPkg, error) {
		if p, ok := loaded[dir]; ok {
			return p, nil
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		p := &srcPkg{dir: dir, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		path := "gemini"
		if dir != "." {
			path += "/" + dir
		}
		conf := types.Config{Importer: imp}
		if p.pkg, err = conf.Check(path, fset, p.files, p.info); err != nil {
			return nil, err
		}
		loaded[dir] = p
		prog = append(prog, p)
		return p, nil
	}
	if _, err := load("."); err != nil {
		return nil, err
	}
	for _, root := range []string{"cmd", "examples", "internal", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if _, err := load(filepath.ToSlash(path)); err != nil {
				if _, ok := err.(*build.NoGoError); !ok {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// programInterfaces lists the interfaces with methods that the program
// can use: error, every interface type declared in a program package or
// in a package one imports, and every interface type of an expression.
func programInterfaces(prog []*srcPkg) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(typ types.Type) {
		if named, ok := typ.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	scanned := map[*types.Package]bool{}
	for _, p := range prog {
		for _, pkg := range append(p.pkg.Imports(), p.pkg) {
			if scanned[pkg] {
				continue
			}
			scanned[pkg] = true
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

func declaresMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// recvNamed returns a method's receiver type, or nil for a function.
func recvNamed(f *types.Func) *types.Named {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
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
	"schedule.Plan.IdleUtilization":               keepReference,

	"simclock.Engine.Step":     keepStep,
	"simclock.Engine.PeekTime": keepStep,

	"agent.System.SetDataPlane": "byte-level data plane the integrity tests drive",

	"netsim.Copier.Bandwidth":                 keepObserve,
	"netsim.Copier.BusyTime":                  keepObserve,
	"netsim.Copy.State":                       keepObserve,
	"netsim.Flow.State":                       keepObserve,
	"obs.SyncRegistry.Snapshot":               keepObserve,
	"profile.Recorder.Iterations":             keepObserve,
	"simclock.Engine.Len":                     keepObserve,
	"statemgr.Manager.Live":                   keepObserve,
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
	"metrics.WastedTimeModel.Validate":              keepPaper,
	"metrics.WastedTimeModel.Worst":                 keepPaper,
	"model.Config.DerivedParams":                    keepPaper,
	"model.Config.FLOPsPerIteration":                keepPaper,
	"model.Sharding.ShardBytesPerGPU":               keepPaper,
	"failure.Model.ExpectedSimultaneousProbability": keepPaper,
	"schedule.AutoGamma":                            keepPaper,
}

// Reasons an exported internal field stays without a non-test reader.
const (
	keepDigest  = "read only through a pin's %+v or %#v digest"
	keepAsserts = "outcome field the package's tests assert"
)

// keepFields lists exported internal fields that no non-test code
// reads, each with the reason it stays.
var keepFields = map[string]string{
	"training.ExecResult.CheckpointWallTime": keepDigest,
	"training.TimedOp.Bytes":                 keepDigest,
	"profile.Profile.Discarded":              keepDigest,
	"profile.Profile.IterationTime":          keepDigest,
	"profile.Profile.Iterations":             keepDigest,

	"ckpt.Retrieval.Bytes": keepAsserts,
	"netsim.Copy.Bytes":    keepAsserts,
	"ckpt.Shard.Bytes":     keepAsserts,
	"cluster.Machine.Rank": keepAsserts,
	"metrics.Summary.N":    keepAsserts,

	"cluster.Machine.Type":               "a rank slot's instance type, which a mixed fleet reads (ROADMAP item 15(b))",
	"scenario.FleetAssignment.Instances": "waits on ROADMAP item 15(b): a reader or deletion",
}
