// Package a is the dependency half of the cross-package fact fixture:
// analysing it exports the hotpath fact for Marked and nothing for
// Unmarked.
package a

//sf:hotpath
func Marked(x int) int { return x + 1 }

func Unmarked(x int) int { return x * 2 }
