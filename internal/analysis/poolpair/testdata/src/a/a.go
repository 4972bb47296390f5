// Package a is the poolpair fixture: a local Get/Put pool pair (the
// test points the pairs flag at it) exercising the pairing and
// ordering rules.
package a

func Get() []float64       { return nil }
func Put(p []float64)      { _ = p }
func GetOther() []float64  { return nil }
func PutOther(p []float64) { _ = p }
func sink(p []float64)     { _ = p }

func good() {
	b := Get()
	defer Put(b)
	sink(b)
}

func leak() {
	b := Get() // want `borrow from Get without a deferred Put on b`
	sink(b)
}

func bare() {
	sink(Get()) // want `pooled borrow is not assigned to a variable`
}

func moveToCaller() []float64 {
	return Get() // ownership moves to the caller: fine
}

func wrongPool() {
	b := Get()        // want `borrow from Get without a deferred Put on b`
	defer PutOther(b) // want `deferred PutOther does not match the pool b was borrowed from`
	sink(b)
}

func staleDefer() {
	var b []float64
	defer Put(b) // want `defer Put\(b\) runs before b is borrowed`
	b = Get()
	sink(b)
}
