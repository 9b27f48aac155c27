package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly != 1 {
		t.Fatal(OwnTestOnly)
	}
	T{}.OwnTestMethod()
	if (Bag{}).Len() != 0 {
		t.Fatal("Bag")
	}
}
