package darkvec_test

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

// stdInterfaceMethods are methods a standard-library interface calls, so a
// type may need one that no file of this module names.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
}

// testOnlyAllowed names the exports under internal/ that exist for tests,
// as package path (relative to internal/), then type, then name; a bare
// package path covers the whole package.
var testOnlyAllowed = map[string]string{
	"robust/faultio":           "fault injection for other packages' tests",
	"vecmath.RefDot":           "naive oracle the unrolled kernel is checked against",
	"vecmath.RefDot64":         "naive oracle the unrolled kernel is checked against",
	"vecmath.RefAxpy":          "naive oracle the unrolled kernel is checked against",
	"vecmath.RefScale":         "naive oracle the unrolled kernel is checked against",
	"vecmath.RefSquaredNorm":   "naive oracle the unrolled kernel is checked against",
	"vecmath.RefSquaredNorm64": "naive oracle the unrolled kernel is checked against",
	"netutil.MustParseIPv4":    "literal addresses in the tests of every package",
	"trace.MustVantage":        "literal vantage tags in the tests of several packages",
}

// TestNoTestOnlyExports fails when an exported function or method under
// internal/ is named by no non-test Go file of this module or of bench/.
// Matching is by name, so a name shared with a used one counts as used.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, pos string }
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		if rel, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/"); ok {
			for _, dd := range f.Decls {
				fn, ok := dd.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				declared[fn.Name] = true
				key := rel + "." + fn.Name.Name
				if fn.Recv != nil {
					key = rel + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		pkg := d.key[:strings.IndexByte(d.key, '.')]
		_, allowed := testOnlyAllowed[d.key]
		_, pkgAllowed := testOnlyAllowed[pkg]
		switch {
		case allowed && used[name]:
			bad = append(bad, d.key+" is allowlisted but used; drop it from testOnlyAllowed")
		case allowed, pkgAllowed, used[name], stdInterfaceMethods[name] && strings.Count(d.key, ".") == 2:
		default:
			bad = append(bad, d.key+" ("+d.pos+") is exported but named by no non-test file")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// recvType names a method's receiver type without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
