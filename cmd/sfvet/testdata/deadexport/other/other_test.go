package other

import (
	"testing"

	l "fixture/lib"
)

func TestOther(t *testing.T) {
	l.OtherTestUsed()
	l.T{}.OtherTestMethod()
	if Use() != 5 {
		t.Fatal(Use())
	}
	if Describe() != "label x" {
		t.Fatal(Describe())
	}
}
