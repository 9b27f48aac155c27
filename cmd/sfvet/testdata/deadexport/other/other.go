// Package other uses lib from its program files and its tests.
package other

import "fixture/lib"

// Use calls lib from a non-test file.
func Use() int { return int(lib.ProdUsed()) + lib.Generic(1) }
