// Command app is package main: its own exports are never judged.
package main

import (
	"flag"

	"fixture/lib"
	"fixture/other"
)

// Exported is unreferenced, but lives in package main.
func Exported() {}

func main() {
	lib.MainUsed()
	other.Use()
	other.Describe()
	other.Register(flag.CommandLine)
}
