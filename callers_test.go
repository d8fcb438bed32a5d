package byzopt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	"byzantine.NewConstant":         "the fixed-report behavior dgd's attack and Into tests build their adversaries from",
	"chaos.Plan.CorruptFrame":       "the one-bit corruption the transport frame tests damage frames with",
	"chaos.TearFile":                "the torn-file injector of the checkpoint recovery tests",
	"core.DiminishingStepCondition": "the step-size hypothesis the theory oracle checks a cell's schedule against",
	"core.HasExactRedundancy":       "the ε = 0 check of the ε-dial Problems",
	"core.NewQuadraticProblem":      "the quadratic instances of the ε-dial Problems",
	"costfunc.NumericGrad":          "the finite-difference reference every analytic gradient is tested against",
	"costfunc.Smoothness":           "μ of Assumption 2, an input of the theory oracle's bounds",
	"costfunc.StrongConvexity":      "γ of Assumption 3, an input of the theory oracle's bounds",
	"linreg.Instance.HonestSum":     "the honest aggregate cost the cluster, p2p and figure tests track as the loss",
	"matrix.Residual":               "the residual reference of the least-squares gradient tests",
	"p2p.DecodeVector":              "the allocating reference DecodeVectorInto is tested against",
	"p2p.Equivocating":              "how a Distorter other than the equivocate behavior joins a run, as ExampleBackend shows",
	"p2p.MessageCost":               "the full EIG tree's size, which ExampleBackend prints and TestBuiltNodes holds a broadcast to",
	"robustmean.NewProblem":         "the core.Problem face of the robustmean workload the theory oracle measures",
	"transport.Flaky.Release":       "unblocks a crashed Flaky agent when a cluster test or ExampleServer ends",
	"transport.NewFlaky":            "the crash injector of the cluster elimination tests and ExampleServer",
	"vecmath.Box.Project":           "the allocating reference ProjectInPlace is tested against",
	"vecmath.Sum":                   "the allocating reference SumInto is tested against",
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
				recv := receiverType(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				key += recv + "."
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

// receiverType is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
