// Package musttest holds Must, the one wrapper tests put around a
// constructor that returns an error. It imports nothing, so any test,
// in-package or external, can use it without an import cycle.
package musttest

// Must returns v, or panics with err when err is non-nil:
// musttest.Must(torus.New([]int{4, 4}, 1)).
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
