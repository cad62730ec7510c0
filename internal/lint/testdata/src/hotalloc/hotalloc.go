// Package hotalloc is the golden fixture for the hotalloc analyzer's
// syntactic layer: //mc:hotpath functions with map iteration, capturing
// closures, and interface boxing (bad) next to slice loops, static
// literals, and interface-to-interface passes (clean). The compiler
// escape-analysis layer needs real build output and is exercised by the
// cmd/mclint e2e tests instead.
package hotalloc

func take(v any)         {}
func variadic(vs ...any) {}

// sumMap iterates a map on the hot path.
//
//mc:hotpath
func sumMap(m map[string]int) int {
	total := 0
	for _, v := range m { // want "map iteration in hot path sumMap"
		total += v
	}
	return total
}

// counter returns a closure over a local.
//
//mc:hotpath
func counter() func() int {
	n := 0
	return func() int { // want "capturing closure in hot path counter"
		n++
		return n
	}
}

// boxesArg passes a concrete int where any is expected.
//
//mc:hotpath
func boxesArg(n int) {
	take(n) // want "boxes a concrete value into an interface in hot path boxesArg"
}

// boxesConv converts explicitly.
//
//mc:hotpath
func boxesConv(n int) any {
	return any(n) // want "conversion to interface type in hot path boxesConv"
}

// boxesVariadic boxes into a variadic any slot.
//
//mc:hotpath
func boxesVariadic(n int) {
	variadic(n) // want "boxes a concrete value into an interface in hot path boxesVariadic"
}

// sumSlice is the allocation-free shape of sumMap.
//
//mc:hotpath
func sumSlice(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}

// staticLit uses a non-capturing literal, which compiles to a static
// function and does not allocate.
//
//mc:hotpath
func staticLit() int {
	f := func(a int) int { return a + 1 }
	return f(41)
}

// passIface hands an interface value to an interface parameter: no box.
//
//mc:hotpath
func passIface(w any) {
	take(w)
}

// passThrough forwards a slice to a variadic without re-boxing.
//
//mc:hotpath
func passThrough(vs []any) {
	variadic(vs...)
}

// allowedBox documents a deliberate boxing; suppressed, not active.
//
//mc:hotpath
func allowedBox(n int) {
	//lint:allow hotalloc fixture: proves directives silence hotalloc findings
	take(n)
}

// coldMap is unannotated; nothing here is in scope.
func coldMap(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
