package byzopt

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keptWithoutCaller names the exported functions and methods under internal/
// that no non-test file references and that stay anyway, each with the reason
// it stays. It is the keep column of the caller table in CHANGES.md; anything
// else without a caller is deleted with its tests.
var keptWithoutCaller = map[string]string{
	"byzantine.NewConstant":           "the fixed-report behavior dgd's attack and Into tests build their adversaries from",
	"chaos.Plan.CorruptFrame":         "the one-bit corruption the transport frame tests damage frames with",
	"chaos.TearFile":                  "the torn-file injector of the checkpoint recovery tests",
	"core.DiminishingStepCondition":   "the step-size hypothesis the theory oracle checks a cell's schedule against",
	"core.HasExactRedundancy":         "the ε = 0 check of the ε-dial Problems",
	"core.NewQuadraticProblem":        "the quadratic instances of the ε-dial Problems",
	"costfunc.NumericGrad":            "the finite-difference reference every analytic gradient is tested against",
	"costfunc.StrongConvexity":        "γ of Assumption 3, an input of the theory oracle's bounds",
	"linreg.Instance.HonestSum":       "the honest aggregate cost the cluster, p2p and figure tests track as the loss",
	"matrix.Residual":                 "the residual reference of the least-squares gradient tests",
	"p2p.DecodeVector":                "the allocating reference DecodeVectorInto is tested against",
	"p2p.Equivocating":                "how a Distorter other than the equivocate behavior joins a run, as ExampleBackend shows",
	"p2p.MessageCost":                 "the full EIG tree's size, which ExampleBackend prints and TestBuiltNodes holds a broadcast to",
	"robustmean.NewProblem":           "the core.Problem face of the robustmean workload the theory oracle measures",
	"sensing.System.Estimate":         "the Theorem-2 exhaustive estimator of Section 2.4, which the package Example runs against two compromised sensors",
	"sensing.System.SparseObservable": "the 2f-sparse observability check (2f-redundancy) the package Example prints",
	"transport.Flaky.Release":         "unblocks a crashed Flaky agent when a cluster test or ExampleServer ends",
	"transport.NewFlaky":              "the crash injector of the cluster elimination tests and ExampleServer",
	"vecmath.Box.Project":             "the allocating reference ProjectInPlace is tested against",
	"vecmath.Sum":                     "the allocating reference SumInto is tested against",
}

// TestEveryExportedFunctionHasACaller parses every non-test Go file of the
// repository (benchmark/ included) and fails on an exported top-level function,
// or an exported method of an exported type, under internal/ that nothing
// references: no selector .Name in any file and no bare Name inside its own
// package. Names are matched, not resolved, so a collision hides an orphan;
// the scan errs on the side of keeping.
func TestEveryExportedFunctionHasACaller(t *testing.T) {
	type decl struct{ dir, key string }
	var decls []decl
	selected := map[string]bool{}        // names used as x.Name anywhere
	bare := map[string]map[string]bool{} // dir -> names used bare in it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if bare[dir] == nil {
			bare[dir] = map[string]bool{}
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			key := strings.TrimPrefix(dir, "internal/") + "."
			if fn.Recv != nil {
				recv := receiverIdent(fn.Recv.List[0].Type)
				if recv == nil || !recv.IsExported() {
					continue
				}
				key += recv.Name + "."
			}
			decls = append(decls, decl{dir, key + fn.Name.Name})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				selected[x.Sel.Name] = true
			case *ast.Ident:
				if !declared[x] {
					bare[dir][x.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		referenced := selected[name] || bare[d.dir][name]
		_, kept := keptWithoutCaller[d.key]
		switch {
		case !referenced && !kept:
			orphans = append(orphans, d.key)
		case referenced && kept:
			t.Errorf("%s is kept as having no caller, but a non-test file references it: drop it from keptWithoutCaller", d.key)
		}
	}
	for key := range keptWithoutCaller {
		if !slices.ContainsFunc(decls, func(d decl) bool { return d.key == key }) {
			t.Errorf("%s is kept as having no caller, but no such function exists", key)
		}
	}
	slices.Sort(orphans)
	for _, key := range orphans {
		t.Errorf("%s is exported and no non-test file references it: delete it, or keep it in keptWithoutCaller with its reason", key)
	}
}

// keptWithoutUse names the exported struct fields under internal/ that no
// non-test file writes, and the exported types that no non-test file uses,
// that stay anyway, each with the reason it stays. It is the keep column of the
// field and type table in CHANGES.md.
var keptWithoutUse = map[string]string{
	"chaos.TornWriter":              "the writer the checkpoint tests tear a log's last record with",
	"p2p.ConsistentLiar":            "the fixed-offset Distorter of the EIG oracle tests and ExampleBackend",
	"p2p.SeededLiar":                "the seeded Distorter the EIG oracle and fuzz tests drive every liar strategy with",
	"sweep.WorkerOptions.DialRetry": "the fleet tests shorten it so a refused dial fails in milliseconds",
}

// TestEveryExportedFieldIsSetAndTypeUsed type-checks every non-test package of
// the repository (benchmark/ included) and fails on an exported field of an
// exported struct under internal/ that no non-test file writes, and on an
// exported type under internal/ that no non-test file uses. Unlike
// TestEveryExportedFunctionHasACaller it resolves every name to its object, so
// a field or method that shares its name with another hides nothing.
//
// A field is written by a keyed or positional composite literal, an
// assignment, ++ or --, taking its address, or a write or pointer-method call
// through it (x.F.G = v, x.F[i] = v, x.F.Add(…) on a value F). A type is used by
// any reference outside its own declaration, its own methods and blank
// assertions like var _ I = T{}.
func TestEveryExportedFieldIsSetAndTypeUsed(t *testing.T) {
	fset := token.NewFileSet()
	s := &typeScan{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := s.Import(importPath(filepath.ToSlash(path))); err != nil && !errors.Is(err, errNoGoFiles) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The exported types under internal/ and the exported fields of their
	// structs. An embedded field composes methods rather than holding a
	// setting, so it is not one; a field of an unused type goes with its type.
	type decl struct {
		obj, owner types.Object // owner: a field's type, nil for a type
		key        string
	}
	var decls []decl
	for path, pkg := range s.pkgs {
		rel, ok := strings.CutPrefix(path, "byzopt/internal/")
		if !ok {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			decls = append(decls, decl{tn, nil, rel + "." + name})
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && !tn.IsAlias() {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						decls = append(decls, decl{f, tn, rel + "." + name + "." + f.Name()})
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, file := range s.files {
		s.markUses(file, used)
	}

	var unused []string
	keys := map[string]bool{}
	for _, d := range decls {
		obj, key := d.obj, d.key
		keys[key] = true
		verb := "uses"
		if d.owner != nil {
			verb = "writes"
			if !used[d.owner] {
				continue
			}
		}
		_, kept := keptWithoutUse[key]
		switch {
		case !used[obj] && !kept:
			unused = append(unused, fmt.Sprintf("%s is exported and no non-test file %s it: delete it, or keep it in keptWithoutUse with its reason", key, verb))
		case used[obj] && kept:
			t.Errorf("%s is kept as unused, but a non-test file %s it: drop it from keptWithoutUse", key, verb)
		}
	}
	for key := range keptWithoutUse {
		if !keys[key] {
			t.Errorf("%s is kept as unused, but no such exported field or type exists", key)
		}
	}
	slices.Sort(unused)
	for _, msg := range unused {
		t.Error(msg)
	}
}

// typeScan type-checks the repository's packages from source, each once, into
// one shared types.Info; the standard library comes from the source importer.
type typeScan struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
}

var errNoGoFiles = errors.New("no non-test Go files")

// importPath maps a directory relative to the repository root to its import
// path; benchmark/ is the module byzopt/benchmark, so one rule serves both.
func importPath(dir string) string {
	if dir == "." {
		return "byzopt"
	}
	return "byzopt/" + dir
}

func (s *typeScan) Import(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := strings.CutPrefix(path, "byzopt/")
	if path == "byzopt" {
		dir, ok = ".", true
	}
	if !ok {
		return s.std.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, errNoGoFiles
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	s.files = append(s.files, files...)
	return pkg, nil
}

// markUses records in used every field file writes and every type it uses.
func (s *typeScan) markUses(file *ast.File, used map[types.Object]bool) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			var own types.Object
			if d.Recv != nil {
				own = s.info.Uses[receiverIdent(d.Recv.List[0].Type)]
			}
			s.markNode(d, own, false, used)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					s.markNode(spec, s.info.Defs[spec.Name], false, used)
				case *ast.ValueSpec:
					blank := !slices.ContainsFunc(spec.Names, func(id *ast.Ident) bool { return id.Name != "_" })
					s.markNode(spec, nil, blank, used)
				}
			}
		}
	}
}

// markNode marks the writes and type uses under node. Uses of own (the type
// whose declaration or method node is) do not count, nor any type use in a
// blank assertion.
func (s *typeScan) markNode(node ast.Node, own types.Object, blank bool, used map[types.Object]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if tn, ok := s.info.Uses[x].(*types.TypeName); ok && tn != own && !blank {
				used[tn] = true
			}
		case *ast.CompositeLit:
			st, ok := deref(s.info.Types[x].Type).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if f, ok := s.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						used[f.Origin()] = true
					}
				} else {
					used[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				s.markThrough(lhs, used)
			}
		case *ast.IncDecStmt:
			s.markThrough(x.X, used)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				s.markThrough(x.Key, used)
				s.markThrough(x.Value, used)
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				s.markThrough(x.X, used)
			}
		case *ast.SelectorExpr:
			// A pointer method on an addressable value takes its address.
			if sel := s.info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrX := s.info.Types[x.X].Type.Underlying().(*types.Pointer)
				if ptrRecv && !ptrX {
					s.markThrough(x.X, used)
				}
			}
		}
		return true
	})
}

// markThrough records every field that a write to e writes or writes through:
// x.F.G = v writes G and F, x.F[i] = v and *x.F = v write through F, and a
// promoted field writes each embedded field on its path.
func (s *typeScan) markThrough(e ast.Expr, used map[types.Object]bool) {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := s.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				t := sel.Recv()
				for _, i := range sel.Index() {
					f := deref(t).Underlying().(*types.Struct).Field(i)
					used[f.Origin()] = true
					t = f.Type()
				}
			}
			e = x.X
		default:
			return
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// receiverIdent is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}
