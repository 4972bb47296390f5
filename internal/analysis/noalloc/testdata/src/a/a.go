// Package a is the noalloc fixture: every allocating construct the
// analyzer rejects inside a //tafloc:noalloc function, plus the shapes
// that are deliberately allowed.
//
// Regression notes:
//   - staticClosure mirrors core.sortCands, whose capture-free SortFunc
//     comparator is legal on the hot path.
//   - amortizedGrow mirrors core.Scratch.candidates/interp, whose grow
//     paths carry line-level //tafloc:alloc-ok markers.
package a

import "fmt"

//tafloc:noalloc
func makes(n int) int {
	s := make([]int, n) // want `make in //tafloc:noalloc function makes`
	return len(s)
}

//tafloc:noalloc
func news() *int {
	return new(int) // want `new in //tafloc:noalloc function news`
}

//tafloc:noalloc
func appends(s []int) []int {
	return append(s, 1) // want `append in //tafloc:noalloc function appends`
}

//tafloc:noalloc
func lits() []int {
	return []int{1, 2} // want `slice/map composite literal`
}

//tafloc:noalloc
func addrLit() *struct{ x int } {
	return &struct{ x int }{x: 1} // want `&composite literal`
}

//tafloc:noalloc
func capture(xs []float64) func() float64 {
	return func() float64 { return xs[0] } // want `closure capturing xs`
}

//tafloc:noalloc
func staticClosure() func(int) int {
	return func(x int) int { return x * 2 } // capture-free: a static singleton
}

//tafloc:noalloc
func spawns() {
	go staticWork() // want `go statement`
}

//tafloc:noalloc
func formats(x int) {
	fmt.Println(x) // want `call into package fmt`
}

//tafloc:noalloc
func concat(a, b string) string {
	return a + b // want `non-constant string concatenation`
}

//tafloc:noalloc
func constConcat() string {
	return "a" + "b" // constant-folded: fine
}

//tafloc:noalloc
func convert(b []byte) string {
	return string(b) // want `string<->slice conversion`
}

//tafloc:noalloc
func amortizedGrow(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n) //tafloc:alloc-ok fixture: amortized grow
	}
	return buf[:n]
}

// unmarked allocates freely: the analyzer only checks marked functions.
func unmarked(n int) []int {
	return make([]int, n)
}

func staticWork() {}
