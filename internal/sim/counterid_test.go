package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The typed-counter contract: one ID<->name table, canonical names
// covering exactly the Ctr* constants, and no string-keyed increments
// of canonical counters anywhere on the simulation path.

func TestCounterIDTableIsBijection(t *testing.T) {
	canon := CanonicalCounters()
	if len(canon) != int(numCanonical) {
		t.Fatalf("CanonicalCounters has %d names, want %d", len(canon), numCanonical)
	}
	if len(counterIDs) != int(numCounters) {
		t.Fatalf("%d distinct names for %d IDs: the table has duplicates", len(counterIDs), numCounters)
	}
	for i, name := range canon {
		if id, ok := counterIDs[name]; !ok || id != CounterID(i) {
			t.Errorf("CanonicalCounters()[%d] = %q maps to ID %d (ok=%v)", i, name, id, ok)
		}
	}
	for id := CounterID(0); id < numCounters; id++ {
		name := id.String()
		if name == "" {
			t.Fatalf("ID %d has no name", id)
		}
		s := NewStats()
		s.AddID(id, int64(id)+1)
		if got := s.Get(name); got != int64(id)+1 {
			t.Errorf("Get(%q) = %d after AddID(%d, %d)", name, got, id, int64(id)+1)
		}
		if snap := s.Snapshot(); len(snap) != 1 || snap[name] != int64(id)+1 {
			t.Errorf("Snapshot after AddID(%d) = %v, want only %s", id, snap, name)
		}
		if s.Counter(name) != &s.ids[id] {
			t.Errorf("Counter(%q) is not the typed cell of ID %d", name, id)
		}
	}
}

// TestCanonicalCountersCoverCtrConstants parses this package's source
// so that a Ctr* constant added without an ID fails here.
func TestCanonicalCountersCoverCtrConstants(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "stats.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	canon := map[string]bool{}
	for _, name := range CanonicalCounters() {
		canon[name] = true
	}
	n := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, ident := range vs.Names {
				if !strings.HasPrefix(ident.Name, "Ctr") {
					continue
				}
				n++
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not a string literal", ident.Name)
				}
				if v, _ := strconv.Unquote(lit.Value); !canon[v] {
					t.Errorf("%s = %s has no counter ID", ident.Name, lit.Value)
				}
			}
		}
	}
	if n != len(canon) {
		t.Errorf("%d Ctr* constants, %d canonical counters", n, len(canon))
	}
}

func TestTypedCounterNilSafeAndListedWhenNonzero(t *testing.T) {
	var nilStats *Stats
	nilStats.IncID(IDDMARequests)
	nilStats.AddID(IDDMABytes, 64)
	s := NewStats()
	s.AddID(IDNoCFlits, 0)
	if len(s.Names()) != 0 {
		t.Fatalf("zero-valued canonical counter listed: %v", s.Names())
	}
	s.IncID(IDNoCFlits)
	if got := s.String(); got != CtrNoCFlits+"=1\n" {
		t.Fatalf("String() = %q", got)
	}
	s.Reset()
	if len(s.Snapshot()) != 0 || s.Get(CtrNoCFlits) != 0 {
		t.Fatalf("Reset left %v", s.Snapshot())
	}
}

func TestTypedCounterIncrementDoesNotAllocate(t *testing.T) {
	s := NewStats()
	if n := testing.AllocsPerRun(1000, func() {
		s.IncID(IDDMARequests)
		s.AddID(IDDMABytes, 64)
	}); n != 0 {
		t.Fatalf("typed increment allocates %.1f times per run", n)
	}
}

// stringMutators are the string-keyed Stats methods that create or
// change a counter.
var stringMutators = map[string]bool{"Add": true, "Inc": true, "Set": true, "Counter": true}

// TestNoStringKeyedCanonicalIncrements scans every non-test Go file of
// the module: a sim.Ctr* constant passed to Add/Inc/Set/Counter is a
// string-keyed (map-lookup) increment of a counter that has a typed ID.
func TestNoStringKeyedCanonicalIncrements(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		inSim := f.Name.Name == "sim"
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !stringMutators[sel.Sel.Name] {
				return true
			}
			if ctr := ctrConstIn(call.Args[0], inSim); ctr != "" {
				t.Errorf("%s: %s(%s...) increments a canonical counter by name; use the typed ID",
					fset.Position(call.Pos()), sel.Sel.Name, ctr)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned only %d files under %s", files, root)
	}
}

// ctrConstIn returns the first Ctr* constant referenced in e (as
// sim.CtrX, or bare CtrX inside package sim), or "".
func ctrConstIn(e ast.Expr, inSim bool) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "sim" && strings.HasPrefix(x.Sel.Name, "Ctr") {
				found = "sim." + x.Sel.Name
			}
		case *ast.Ident:
			if inSim && strings.HasPrefix(x.Name, "Ctr") {
				found = x.Name
			}
		}
		return true
	})
	return found
}
