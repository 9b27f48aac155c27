// Package other uses lib from its program files and its tests.
package other

import (
	"flag"
	"fmt"
	"sort"

	"fixture/lib"
)

// Use calls lib from a non-test file, and hands a value to sort.Sort,
// whose parameter is a sort.Interface.
func Use() int {
	var s lib.Shape = lib.Square(2)
	sort.Sort(sort.IntSlice(lib.Bag{}))
	return int(lib.ProdUsed()) + lib.Generic(1) + s.Area() + lib.Box[int]{}.Get()
}

// Describe formats a lib.Label without calling its String method.
func Describe() string { return fmt.Sprint(lib.Label("x")) }

// Register adds a lib.Level flag to fs.
func Register(fs *flag.FlagSet) { fs.Var(new(lib.Level), "level", "verbosity") }
