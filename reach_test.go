package repro

import (
	"fmt"
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
	"testing"
)

// testSeams is the whole allow-list of TestExportedReachable: exported
// functions and methods under internal/ that only tests call, kept
// because a test of live behaviour has no other way to set up or to
// observe it. At most maxSeams entries, none longer than maxSeamLines
// lines, so no block can hide here; an entry that gains a non-test
// caller, or whose subject is deleted, fails the test until it is
// removed from the list.
var testSeams = map[string]string{
	"internal/ipstack.Node.Addr":      "protocol tests address packets to the peer node they built",
	"internal/telemetry.Timer.Count":  "timer tests read the cumulative count between flushes",
	"internal/telemetry.WithClock":    "fake clock, so the flusher tests get reproducible timestamps",
	"internal/telemetry.WithTimerCap": "small sample bound, so the overflow accounting is reachable in a test",
	"internal/tmtc.FARM.Counters":     "COP-1 tests observe accepted/discarded frames of the live FARM",
	"internal/tmtc.Link.Stats":        "link tests observe the corrupted-frame count of the live TC channel",
}

const (
	maxSeams     = 25
	maxSeamLines = 10
)

// stdInterfaces are the standard-library interfaces whose methods are
// called by the library, not by name from this repo. Interfaces declared
// in the repo itself are collected from the source.
var stdInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"flag", "Value"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"io", "Reader"},
	{"io", "Writer"},
}

// srcPackage is one directory's non-test files, type-checked.
type srcPackage struct {
	path  string // import path
	files []*ast.File
	types *types.Package
}

// srcLoader type-checks the root module and bench/ from source: repo
// packages from their non-test files (so a reference from a _test.go
// file is never seen), everything else through the standard "source"
// importer. One types.Info is shared, so an object has one identity
// whichever package refers to it.
type srcLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*srcPackage
	info *types.Info
}

func (l *srcLoader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.types, nil
	}
	p := &srcPackage{path: path}
	l.pkgs[path] = p
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, l.info)
	return p.types, err
}

// loadRepo finds every package directory under the working directory
// (the root module plus bench/, which is its own module but calls into
// internal/ like any command) and type-checks all of them.
func loadRepo(t *testing.T) *srcLoader {
	t.Helper()
	fset := token.NewFileSet()
	l := &srcLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*srcPackage{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
			return filepath.SkipDir
		}
		if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) > 0 {
			l.dirs[filepath.ToSlash(filepath.Join("repro", path))] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range l.dirs {
		if _, err := l.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	return l
}

// origin strips a generic instantiation, so a call through Vec[T].M
// counts for the declared M.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// receiver returns the named type a method is declared on, or nil for a
// plain function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// TestExportedReachable pins "only what runs": every exported function
// and method under internal/ is referenced from non-test code of the
// root module or bench/ (a function's own body does not count), or is
// called through an interface, or is a listed test seam.
func TestExportedReachable(t *testing.T) {
	l := loadRepo(t)

	// Every reference from non-test code, except recursion; and every
	// interface a method may be called through: those the repo declares,
	// plus stdInterfaces and error.
	used := map[types.Object]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = l.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := l.info.Uses[id]; obj != nil && origin(obj) != self {
							used[origin(obj)] = true
						}
					}
					return true
				})
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, s := range stdInterfaces {
		pkg, err := l.std.Import(s[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(s[1]).Type().Underlying().(*types.Interface))
	}

	// viaInterface: the receiver implements an interface that declares
	// this method, so the call site names the interface, not the method.
	viaInterface := func(fn *types.Func, recv *types.Named) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	var findings []string
	declared := map[string]bool{}
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.path, "repro/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := l.info.Defs[fd.Name].(*types.Func)
				recv := receiver(fn)
				name := strings.TrimPrefix(p.path, "repro/") + "."
				if recv != nil {
					name += recv.Obj().Name() + "."
				}
				name += fd.Name.Name
				declared[name] = true
				lines := l.fset.Position(fd.End()).Line - l.fset.Position(fd.Pos()).Line + 1
				_, seam := testSeams[name]
				switch {
				case used[fn] && seam:
					findings = append(findings, name+": listed as a test seam but non-test code calls it; drop it from testSeams")
				case used[fn] || recv != nil && viaInterface(fn, recv):
				case !seam:
					findings = append(findings, fmt.Sprintf("%s (%s, %d lines): no non-test caller; delete it with its tests, or give it a caller",
						name, l.fset.Position(fd.Pos()), lines))
				case lines > maxSeamLines:
					findings = append(findings, fmt.Sprintf("%s: a test seam of %d lines (limit %d)", name, lines, maxSeamLines))
				}
			}
		}
	}
	for name, reason := range testSeams {
		if !declared[name] {
			findings = append(findings, name+": listed in testSeams but no longer declared")
		}
		if reason == "" {
			findings = append(findings, name+": a test seam needs a reason")
		}
	}
	if len(testSeams) > maxSeams {
		findings = append(findings, fmt.Sprintf("testSeams has %d entries (limit %d)", len(testSeams), maxSeams))
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Error(f)
	}
}
