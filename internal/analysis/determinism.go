package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DefaultKernelPackages are the packages under a bit-identical output
// guarantee: the training kernels (Config.Parallelism trains ==-equal
// models at every worker count), the crawl path (same seeds, same
// corpus — including kill-and-resume and injected-fault replays), and the
// shared resilience primitives both the crawl and the serving gateway
// replay faults through (seeded jitter, schedule hashing, the
// request-count breaker). Nondeterministic iteration order or
// nondeterministic inputs inside them would break those guarantees, so
// the determinism analyzers are scoped here. The lifecycle orchestrator
// belongs to the set too: its manifests, gate reports and promotion
// decisions must be bit-identical across same-seed runs, which holds
// only while the package itself stays clock- and randomness-free. The
// acmatch automaton joins because prefiltered extraction is bit-identical
// to plain extraction only while its construction and scan order stay
// deterministic. The gateway completes the serving path: its breaker,
// canary and reload decisions replay deterministically in the chaos
// suites only while every clock it consults is an injected one, so plain
// wall-clock reads there need a reasoned exemption, not a free pass.
// Admission control joins for the same reason: the abuse-chaos suite
// replays bit-identical shed/block/recover sequences, which holds only
// while every limiter decision reads the injected clock and every jitter
// draw comes from the seeded generator.
var DefaultKernelPackages = []string{
	"internal/matrix",
	"internal/ml",
	"internal/cluster",
	"internal/feature",
	"internal/acmatch",
	"internal/crawl",
	"internal/faultify",
	"internal/resilience",
	"internal/lifecycle",
	"internal/gateway",
	"internal/admission",
}

func isKernelPackage(pkg *Package, kernel []string) bool {
	for _, k := range kernel {
		if pkg.Path == k || strings.HasSuffix(pkg.Path, "/"+k) {
			return true
		}
	}
	return false
}

// MapOrderAnalyzer flags float accumulation inside a range over a map in
// kernel packages (check "maporder"). Go randomizes map iteration order
// and float addition is not associative, so `for _, v := range m { sum +=
// v }` yields different bits run to run — exactly what the ==-parity
// tests would catch only probabilistically.
func MapOrderAnalyzer(kernel []string) *CodeAnalyzer {
	return &CodeAnalyzer{
		Name: "maporder",
		Doc:  "float accumulation over map iteration order is nondeterministic",
		Run: func(prog *Program, pkg *Package) []Diagnostic {
			if !isKernelPackage(pkg, kernel) {
				return nil
			}
			var out []Diagnostic
			inspectFiles(pkg, func(f *ast.File, n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pkg.Info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				for _, d := range findFloatAccumulation(prog, pkg, rng) {
					out = append(out, d)
				}
				return true
			})
			return out
		},
	}
}

// findFloatAccumulation reports op-assignments (+=, -=, *=, /=) of float
// type inside the range body whose target is declared outside the range
// statement — an accumulator whose value depends on iteration order.
func findFloatAccumulation(prog *Program, pkg *Package, rng *ast.RangeStmt) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			tv, ok := pkg.Info.Types[lhs]
			if !ok || !isFloat(tv.Type) {
				continue
			}
			root, _ := lhsRoot(lhs)
			if root == nil {
				continue
			}
			obj := pkg.Info.Uses[root]
			if obj == nil {
				obj = pkg.Info.Defs[root]
			}
			if obj == nil || insideNode(obj.Pos(), rng) {
				continue // per-iteration temporary, order-independent
			}
			out = append(out, prog.diag("maporder", as.Pos(),
				"float accumulation into %q inside a map range: iteration order is random, so the sum's bits vary run to run", root.Name))
		}
		return true
	})
	return out
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func insideNode(pos token.Pos, n ast.Node) bool {
	return pos >= n.Pos() && pos <= n.End()
}

// WallTimeAnalyzer flags wall-clock reads (time.Now, time.Since,
// time.Until) in kernel packages (check "walltime"): trained models must
// be functions of their inputs alone.
func WallTimeAnalyzer(kernel []string) *CodeAnalyzer {
	banned := map[string]bool{"time.Now": true, "time.Since": true, "time.Until": true}
	return &CodeAnalyzer{
		Name: "walltime",
		Doc:  "wall-clock reads make kernel output depend on when it ran",
		Run: func(prog *Program, pkg *Package) []Diagnostic {
			if !isKernelPackage(pkg, kernel) {
				return nil
			}
			var out []Diagnostic
			inspectFiles(pkg, func(f *ast.File, n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && banned[fn.FullName()] {
					out = append(out, prog.diag("walltime", sel.Pos(),
						"%s in kernel package %s: wall-clock input breaks the bit-identical parity guarantee", fn.FullName(), pkg.Name))
				}
				return true
			})
			return out
		},
	}
}

// RandSourceAnalyzer flags math/rand imports in kernel packages (check
// "randsource"). Seeded generators belong in the callers (attackgen, the
// experiment harness); the kernels must be deterministic functions of
// their arguments.
func RandSourceAnalyzer(kernel []string) *CodeAnalyzer {
	banned := map[string]bool{"math/rand": true, "math/rand/v2": true}
	return &CodeAnalyzer{
		Name: "randsource",
		Doc:  "math/rand in a kernel package undermines reproducible training",
		Run: func(prog *Program, pkg *Package) []Diagnostic {
			if !isKernelPackage(pkg, kernel) {
				return nil
			}
			var out []Diagnostic
			for _, f := range pkg.Files {
				for _, imp := range f.Imports {
					path := strings.Trim(imp.Path.Value, `"`)
					if banned[path] {
						out = append(out, prog.diag("randsource", imp.Pos(),
							"kernel package %s imports %s: randomness belongs in callers, not training kernels", pkg.Name, path))
					}
				}
			}
			return out
		},
	}
}
