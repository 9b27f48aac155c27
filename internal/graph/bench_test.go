package graph_test

import (
	"fmt"
	"testing"

	"slimfly/internal/topo/slimfly"
)

// BenchmarkAllPairsStats prices the path statistics of the two Slim Fly
// orders the build ladder and the engine workloads build most: q=19 (722
// routers, the paper's working point) and q=31 (1 922). Run with -cpu 1,2:
// the second figure says what a second processor buys.
func BenchmarkAllPairsStats(b *testing.B) {
	for _, q := range []int{19, 31} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			g := slimfly.MustNew(q).Graph()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st := g.AllPairsStats(); st.Diameter != 2 {
					b.Fatal("bad stats")
				}
			}
		})
	}
}
