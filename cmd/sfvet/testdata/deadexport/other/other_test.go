package other

import (
	"testing"

	l "fixture/lib"
)

func TestOther(t *testing.T) {
	l.OtherTestUsed()
	if Use() != 1 {
		t.Fatal(Use())
	}
}
