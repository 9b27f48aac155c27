package libtest

import "testing"

func TestOwn(t *testing.T) { OwnTestOnly() }
