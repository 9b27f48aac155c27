package roster

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"slimfly/internal/musttest"
)

func TestNearAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			t.Parallel()
			tp, err := Near(k, 1000, 7)
			if err != nil {
				t.Fatal(err)
			}
			n := tp.Endpoints()
			if n < 250 || n > 4000 {
				t.Errorf("%s near 1000 has N = %d (too far)", k, n)
			}
			if !tp.Graph().IsConnected() {
				t.Errorf("%s disconnected", k)
			}
		})
	}
}

func TestNearPaperConfigs(t *testing.T) {
	// The Section V triple: SF N=10830, DF N=9702, FT-3 N=10648.
	sf := musttest.Must(Near(SF, 10500, 0))
	if sf.Endpoints() != 10830 {
		t.Errorf("SF near 10500 = %d, want 10830 (q=19)", sf.Endpoints())
	}
	df := musttest.Must(Near(DF, 9700, 0))
	if df.Endpoints() != 9702 {
		t.Errorf("DF near 9700 = %d, want 9702 (p=7)", df.Endpoints())
	}
	ft := musttest.Must(Near(FT3, 10648, 0))
	if ft.Endpoints() != 10648 {
		t.Errorf("FT near 10648 = %d, want 10648 (p=22)", ft.Endpoints())
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := Near(Kind("nope"), 100, 0); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestBalancedSizes(t *testing.T) {
	for _, k := range Kinds() {
		sizes := BalancedSizes(k, 200, 20000)
		if len(sizes) == 0 {
			t.Errorf("%s: no balanced sizes in [200, 20000]", k)
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] <= sizes[i-1] {
				t.Errorf("%s: sizes not increasing: %v", k, sizes)
			}
		}
	}
	// SF's ladder must include the paper's 10830.
	found := false
	for _, n := range BalancedSizes(SF, 200, 20000) {
		if n == 10830 {
			found = true
		}
	}
	if !found {
		t.Error("SF ladder missing 10830")
	}
}

// rosterTable prints what Near builds for kind at n = 1, 8, …, 11 999
// (each graph folded to an FNV-1a word over its adjacency lists), then
// BalancedSizes(kind, 100, 30000).
func rosterTable(t *testing.T, k Kind) string {
	var b strings.Builder
	for n := 1; n <= 11999; n += 7 {
		tp, err := Near(k, n, 1)
		if err != nil {
			t.Fatalf("Near(%s, %d): %v", k, n, err)
		}
		h := fnv.New64a()
		g := tp.Graph()
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16)})
			}
			h.Write([]byte{0xff})
		}
		fmt.Fprintf(&b, "%d: %s N=%d Nr=%d k'=%d p=%d D=%d g=%016x\n", n, tp.Name(),
			tp.Endpoints(), tp.Routers(), tp.NetworkRadix(), tp.Concentration(), tp.DesignDiameter(), h.Sum64())
	}
	fmt.Fprintf(&b, "sizes %v\n", BalancedSizes(k, 100, 30000))
	return b.String()
}

// TestRosterTablePinned holds Near and BalancedSizes, kind by kind, to a
// recorded table: the network each n maps to, and the kind's sizes.
func TestRosterTablePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 15 435 networks; skipped in -short mode")
	}
	want := map[Kind]string{
		SF:   "e6faf2f30205e256c88f1c6fd38eaa3943b5766ba53ae5e0902f5758fd425b4c",
		DF:   "7cde6e142e538aa4267af2aca439f3371b802cf2aae8772f39e5e1f07480739e",
		FT3:  "684f19eb180af8524c57aab438bd1a38c1f2c0b23f503c01cc647c56af17e25d",
		FBF3: "d2df3b70ce2b3978b2eafe67f01e9c247649e3923e34ac5130845412b44f23f1",
		T3D:  "3de40c9ccd3d41130fb6427d006f2345b9406d3b7ed63476f432fab3b947e64e",
		T5D:  "7ea7276a7753b8c559b736e9a6e8e90c814ab82523627c5ea20922507c5072f2",
		HC:   "ccbe5c00546dfb4c45a7025f0b82d8d89495c131a19d8255fa39e5da945df52b",
		LHHC: "dd66f288c3ecef742765ab177270f7c2c2f2e4998b87a12698c1f326c9b4de44",
		DLN:  "45634e4f6f6c3a7c99aaa981ffdd5f566db4fe6805c4c4bb7afdf26f05eff148",
	}
	for _, k := range Kinds() {
		t.Run(string(k), func(t *testing.T) {
			t.Parallel()
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(rosterTable(t, k)))); got != want[k] {
				t.Errorf("%s: table hash = %s, want %s", k, got, want[k])
			}
		})
	}
}
