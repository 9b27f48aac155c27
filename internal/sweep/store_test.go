package sweep_test

// The Store conformance suite, run against the local directory backend.
// The remote backend runs the identical suite from the sweepd package
// (it needs a live server). External test package: the suite must see
// only the exported Store surface, exactly like a real caller.

import (
	"testing"

	"slimfly/internal/sweep"
	"slimfly/internal/sweep/storetest"
)

func TestCacheStoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Backend{
		OpenDir: func(t *testing.T) (sweep.Store, string) {
			dir := t.TempDir()
			c, err := sweep.OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			return c, dir
		},
	})
}
