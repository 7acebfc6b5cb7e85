package crossroads

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// banned maps an import path to the functions library code may not reach
// through it: environment reads and stdout prints are side channels next to
// the trace. Fprint* to an explicit writer stays legal.
var banned = map[string]map[string]bool{
	"os":  {"Getenv": true, "LookupEnv": true},
	"fmt": {"Print": true, "Printf": true, "Println": true},
}

// TestOneDebugChannel keeps the JSONL trace the only diagnostic channel:
// no non-test Go file under internal/ or pkg/ may read an environment
// variable or print to stdout (fmt.Print*, builtin print/println).
func TestOneDebugChannel(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, root := range []string{"internal", "pkg"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			for _, v := range sideChannels(f) {
				t.Errorf("%s: %s (use the trace recorder or return an error)", fset.Position(v.Pos()), render(v))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/ or pkg/")
	}
}

// sideChannels returns the banned references in one file: selectors on a
// banned import (under whatever local name it has) and calls to the
// print/println builtins.
func sideChannels(f *ast.File) []ast.Expr {
	local := map[string]map[string]bool{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		fns, ok := banned[path]
		if !ok {
			continue
		}
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = fns
	}
	var hits []ast.Expr
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); ok && local[pkg.Name][n.Sel.Name] {
				hits = append(hits, n)
			}
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.Ident); ok && (fn.Name == "print" || fn.Name == "println") {
				hits = append(hits, fn)
			}
		}
		return true
	})
	return hits
}

func render(e ast.Expr) string {
	if s, ok := e.(*ast.SelectorExpr); ok {
		return s.X.(*ast.Ident).Name + "." + s.Sel.Name
	}
	return e.(*ast.Ident).Name
}

// TestSideChannelsDetector pins what the guard flags: aliased imports and
// the builtins are caught, writer-directed prints and look-alikes are not.
func TestSideChannelsDetector(t *testing.T) {
	src := `package p
import (
	"fmt"
	env "os"
	"io"
)
type logger struct{}
func (logger) Printf(string, ...any) {}
func f(w io.Writer, fmt2 logger) {
	fmt.Printf("x")
	p := fmt.Println
	p()
	_ = env.Getenv("X")
	println("y")
	fmt.Fprintf(w, "ok")
	fmt2.Printf("ok")
	_ = fmt.Sprintf("ok")
}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range sideChannels(f) {
		got = append(got, render(v))
	}
	want := "fmt.Printf fmt.Println env.Getenv println"
	if strings.Join(got, " ") != want {
		t.Errorf("flagged %v, want %s", got, want)
	}
}
