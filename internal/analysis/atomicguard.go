package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DefaultProbeGatedPackages are the packages whose atomic.Pointer swaps
// install serving state (the gateway's detector and canary slots, the
// lifecycle's promotion path): a store of an unvalidated value there is a
// production outage one corrupt model push away, so swap sites must
// follow the validate-probe-swap idiom the hot-reload design documents.
var DefaultProbeGatedPackages = []string{
	"internal/gateway",
	"internal/lifecycle",
	"internal/admission",
}

// AtomicGuardAnalyzer enforces two atomicity disciplines (check
// "atomicguard"):
//
//   - Mixed access: a variable or field touched through the sync/atomic
//     function forms (atomic.AddInt64(&x, 1), atomic.LoadUint64(&f)...)
//     must never be read or written plainly anywhere else in the package —
//     the plain access races with the atomic ones, and unlike the typed
//     atomic.Int64 wrappers nothing in the type system prevents it.
//
//   - Validate-probe-swap: in probe-gated packages, storing a non-nil
//     value into an atomic.Pointer (Store, Swap, or the new-value arm of
//     CompareAndSwap) requires a probe call in the same function — the
//     idiom that keeps a corrupt model push from ever becoming the
//     serving detector.
func AtomicGuardAnalyzer(probeGated []string) *CodeAnalyzer {
	return &CodeAnalyzer{
		Name: "atomicguard",
		Doc:  "atomically-accessed state must not be accessed plainly; atomic.Pointer swaps must probe first",
		Run: func(prog *Program, pkg *Package) []Diagnostic {
			out := checkMixedAtomicAccess(prog, pkg)
			if isKernelPackage(pkg, probeGated) {
				out = append(out, checkProbeBeforeSwap(prog, pkg)...)
			}
			SortDiagnostics(out)
			return dedupeDiagnostics(out)
		},
	}
}

// atomicFuncPrefixes are the sync/atomic function-form families; any
// function whose name starts with one takes an address as first argument.
var atomicFuncPrefixes = []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"}

func isAtomicFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, p := range atomicFuncPrefixes {
		if strings.HasPrefix(fn.Name(), p) {
			return true
		}
	}
	return false
}

// checkMixedAtomicAccess flags plain uses of objects that are elsewhere
// accessed through sync/atomic function calls.
func checkMixedAtomicAccess(prog *Program, pkg *Package) []Diagnostic {
	type span struct{ lo, hi token.Pos }
	atomicObjs := make(map[types.Object]token.Pos) // object -> first atomic site
	var sanctioned []span                          // &x argument subtrees inside atomic calls

	inspectFiles(pkg, func(f *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn, _ := pkg.Info.Uses[selIdent(call.Fun)].(*types.Func)
		if !isAtomicFunc(fn) {
			return true
		}
		addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || addr.Op != token.AND {
			return true
		}
		id := referentIdent(addr.X)
		if id == nil {
			return true
		}
		obj := useObject(pkg, id)
		if obj == nil {
			return true
		}
		if _, seen := atomicObjs[obj]; !seen || call.Pos() < atomicObjs[obj] {
			atomicObjs[obj] = call.Pos()
		}
		sanctioned = append(sanctioned, span{addr.Pos(), addr.End()})
		return true
	})
	if len(atomicObjs) == 0 {
		return nil
	}

	inSanctioned := func(pos token.Pos) bool {
		for _, s := range sanctioned {
			if pos >= s.lo && pos <= s.hi {
				return true
			}
		}
		return false
	}

	var out []Diagnostic
	inspectFiles(pkg, func(f *ast.File, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		first, tracked := atomicObjs[obj]
		if !tracked || inSanctioned(id.Pos()) {
			return true
		}
		out = append(out, prog.diag("atomicguard", id.Pos(),
			"%q is accessed via sync/atomic (first at line %d): this plain access races with the atomic ones",
			id.Name, prog.Fset.Position(first).Line))
		return true
	})
	return out
}

// selIdent returns the identifier a call's function expression names: the
// selector member for pkg.Fn, the identifier itself otherwise.
func selIdent(fun ast.Expr) *ast.Ident {
	switch x := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	}
	return nil
}

// referentIdent resolves the identifier named by an addressed expression:
// the field for &s.f, the variable for &x, the element root for &a[i].
func referentIdent(e ast.Expr) *ast.Ident {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.IndexExpr:
		return exprRootIdent(x.X)
	}
	return nil
}

// checkProbeBeforeSwap flags non-nil stores into atomic.Pointer values in
// functions that never probe the candidate.
func checkProbeBeforeSwap(prog *Program, pkg *Package) []Diagnostic {
	var out []Diagnostic
	inspectFiles(pkg, func(f *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		_, name, typ, ok := methodCall(pkg, call)
		if !ok || !isNamedType(typ, "sync/atomic", "Pointer") {
			return true
		}
		var stored ast.Expr
		switch name {
		case "Store", "Swap":
			if len(call.Args) == 1 {
				stored = call.Args[0]
			}
		case "CompareAndSwap":
			if len(call.Args) == 2 {
				stored = call.Args[1]
			}
		}
		if stored == nil || isNilIdent(stored) {
			return true // clearing a slot installs nothing to validate
		}
		fd := enclosingFuncDecl(pkg, call.Pos())
		if fd == nil || functionProbes(fd) {
			return true
		}
		out = append(out, prog.diag("atomicguard", call.Pos(),
			"%s stores an unprobed value into an atomic.Pointer: the validate-probe-swap idiom requires a probe call in the same function so a corrupt candidate never serves", fd.Name.Name))
		return true
	})
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// functionProbes reports whether the declaration's body calls anything
// named like a probe ("probe", "Probe", "probeDetector", ...).
func functionProbes(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := calleeName(call); strings.Contains(strings.ToLower(name), "probe") {
				found = true
			}
		}
		return !found
	})
	return found
}
