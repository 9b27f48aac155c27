package other

import (
	"testing"

	l "fixture/lib"
	"fixture/libtest"
)

func TestOther(t *testing.T) {
	l.OtherTestUsed()
	l.T{}.OtherTestMethod()
	if Use() != 5 || libtest.Helper() != 1 || !(libtest.Fixture{}).Check() {
		t.Fatal(Use())
	}
	if Describe() != "label x" {
		t.Fatal(Describe())
	}
}
