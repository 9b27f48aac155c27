package lib_test

import (
	"testing"

	"fixture/lib"
)

func TestX(t *testing.T) {
	if lib.XTestOnly != 2 {
		t.Fatal(lib.XTestOnly)
	}
}
