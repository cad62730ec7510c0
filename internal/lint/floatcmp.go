package lint

import (
	"go/ast"
	"go/token"
)

// FloatCmpAnalyzer flags == and != between two computed floating-point
// values. Similarity scores are float64s produced by different code
// paths (different summation orders, SIMD-width-dependent
// summation, ...), so exact equality silently turns into
// platform-dependent tie-breaking — the bug class PR 1's total-order
// top-k tie-break exists to prevent. Route score ties through the
// approved helpers in internal/floats (floats.Equal for deliberate
// exact ties in a documented total order, floats.EqualWithin for
// tolerance checks).
//
// Comparisons against compile-time constants (sentinels like 0 or 1)
// are allowed: they are exact by construction. The floats package
// itself is exempt — it is where the approved comparisons live.
var FloatCmpAnalyzer = &Analyzer{
	Name: "floatcmp",
	Doc: "flags ==/!= between two computed floats; route ties through " +
		"internal/floats (Equal/EqualWithin) so tie-breaking stays deliberate",
	Run: runFloatCmp,
}

func runFloatCmp(pass *Pass) error {
	if isFloatsPkg(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt, okx := info.Types[be.X]
			yt, oky := info.Types[be.Y]
			if !okx || !oky || !isFloat(xt.Type) || !isFloat(yt.Type) {
				return true
			}
			if isConstExpr(info, be.X) || isConstExpr(info, be.Y) {
				return true // sentinel comparison against an exact constant
			}
			pass.Reportf(be.OpPos,
				"exact %s between computed floats; use floats.Equal (documented exact tie) or floats.EqualWithin (tolerance) from internal/floats", be.Op)
			return true
		})
	}
	return nil
}
