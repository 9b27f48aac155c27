// Package b is the dependent half: its hot path calls into a, and only
// the call whose callee carries no hotpath fact may be reported.
package b

import "twopkg/a"

//sf:hotpath
func Step(x int) int {
	x = a.Marked(x)
	return a.Unmarked(x)
}
