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
