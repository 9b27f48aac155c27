package graph_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/musttest"
	"slimfly/internal/roster"
	"slimfly/internal/topo/diam3"
	"slimfly/internal/topo/sfdf"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/topo/torus"
)

// builtGraphs returns a graph from every constructor in the tree: each
// roster kind near 100 and 1 000 endpoints, balanced Slim Fly at every
// order q = 5 ... 43, the Section VII extensions (random shortcuts, the
// SF-grouped Dragonfly), tori with dimensions of size 2 and the polarity
// graphs of diam3.
func builtGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	for _, n := range []int{100, 1000} {
		for _, kind := range roster.Kinds() {
			tp, err := roster.Near(kind, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			gs[fmt.Sprintf("%s@%d", kind, n)] = tp.Graph()
		}
	}
	for _, q := range slimfly.ValidOrders(5, 43) {
		gs[fmt.Sprintf("SF-q%d", q)] = slimfly.MustNew(q).Graph()
	}
	for _, c := range []struct {
		q, extra int
		seed     uint64
	}{{5, 4, 7}, {7, 2, 42}, {19, 3, 1}} {
		aug, err := slimfly.NewWithRandomShortcuts(c.q, c.extra, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		gs[fmt.Sprintf("SF+rand-q%d-x%d-s%d", c.q, c.extra, c.seed)] = aug.Graph()
	}
	s, err := sfdf.New(5, 6, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	gs["SF-DF-q5-g6"] = s.Graph()
	for _, dims := range [][]int{{2, 2, 2}, {2, 5}, {3, 3}} {
		gs[fmt.Sprint("T", dims)] = musttest.Must(torus.New(dims, 1)).Graph()
	}
	for _, u := range []int{3, 4, 5} {
		g, err := diam3.PolarityGraph(u)
		if err != nil {
			t.Fatal(err)
		}
		gs[fmt.Sprintf("polarity-%d", u)] = g
	}
	return gs
}

// edgesHash is the SHA-256 of Edges(), little-endian.
func edgesHash(g *graph.Graph) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, g.Edges())
	return hex.EncodeToString(h.Sum(nil))
}

// TestConstructedAdjacency holds every constructor to the adjacency
// contract graph.FromEdges owns -- each list strictly ascending, and v
// listed at u exactly when u is listed at v -- and to the edges each built
// before the constructors emitted edge lists: the count and a hash of the
// sorted edge list, recorded when every constructor added its edges one at
// a time and sorted the lists afterwards.
func TestConstructedAdjacency(t *testing.T) {
	want := map[string]struct {
		edges int
		hash  string
	}{
		"DF@100":            {90, "99a3b6e19ac58b8436a960d1990b784b79df86f3154018b51c48259eb7d716b2"},
		"DF@1000":           {1452, "6827bb5fde0def080f5fd59e1c74b32a43042a1b9e5e6621c662b794e30abc5a"},
		"DLN@100":           {67, "b946d79a0c1aee72e4c0e9fa55d8235f117804012a387dc828fd4c9c18b7dd85"},
		"DLN@1000":          {1124, "230fc6e13abe13b09174be983511a4e73dc8e5e00ad2d945a65838a034da3322"},
		"FBF-3@100":         {81, "916dbbcc2fc6dba972422c6acbe7c806dcebbe06860a3b57708c65960af57ad6"},
		"FBF-3@1000":        {1620, "36906febbdea41a0e26fbd1e47118a25d23dd5ed67424452c3a4fee52334b59b"},
		"FT-3@100":          {250, "01b6296bec87d77e9bde0163ea7f2118492356296452734cadfa2e7f497551fc"},
		"FT-3@1000":         {2000, "59859139c2e730a275f16edeb1a40bc2561e38467e6dda4565b5f7a4910d4f17"},
		"HC@100":            {448, "98c7d61f29ed61c1dd9c3d49e38db113a006b2c997d46a9edaa1ba66d4ed6f0a"},
		"HC@1000":           {5120, "6cee9881722182eed65281af199dfd66b79c0d325fac0da81d4edba2210bbfaf"},
		"LH-HC@100":         {704, "8756d6c5abe9d0f7ae68ed799b68e61fabc54e0576f0a129b1da21f44115e1c2"},
		"LH-HC@1000":        {7680, "fff61a8f34210933ba3ba6164e11dcfe55aa365c5b178ca11c55c7030c7634d6"},
		"SF+rand-q19-x3-s1": {11550, "bdaf3fe02c079a57525fa768b558be09c5284298d7ee941ebe6890a5512c70e0"},
		"SF+rand-q5-x4-s7":  {274, "9a0ca23dac61c7f38aba33bd48a99f5b82a3be620585bd7120ff72163e8ede99"},
		"SF+rand-q7-x2-s42": {637, "eca0caaeddf4d3c1eaa9f9d262aa205029e00da2fc4e453f6f29fd22ecb6134b"},
		"SF-DF-q5-g6":       {1065, "d3e437305298b1bc830abc492c6c963b06f494b07d28752982ffbca116ebdee5"},
		"SF-q11":            {2057, "3a614562dd52c39e376af6c7c6d81125c642d52093c5726d7af3a86c859a1a21"},
		"SF-q13":            {3211, "3a3182e8bdbd0d52e5c1785430fa39b7e3ecd22a034878659a391e9240dbab72"},
		"SF-q16":            {6144, "39ee8686e4154ded620f522be75506fd79dd263b7f7bafe5c43c11fe37a7fa2b"},
		"SF-q17":            {7225, "f9b6514b610bd2f3d7c2b09a597d385e33927e9731871459591eef6462728304"},
		"SF-q19":            {10469, "11c11c53df1f6b6efd0649525ba29ce5aa31f0f3e31c31d60dbbb2ad55e47827"},
		"SF-q23":            {18515, "fbd1190aecf2f601519dbb15e38eb28234815ec9be1be106b0ec59fbc151c644"},
		"SF-q25":            {23125, "198040199f091c438bd52ea730e3aaad79c407e6294c49c8a307a45d766b7c9b"},
		"SF-q27":            {29889, "16fe612e1b3039979db3a5fc763a555414f39b19e410221d19f0f176c10394aa"},
		"SF-q29":            {36163, "c195b233330d41f9de69fb3c4d0c89ff3af0b93a531d103b771fabc893201dd2"},
		"SF-q31":            {45167, "c5577f3f2781265e338522cef754fce3bdff88bc7c882f68b495b2c76951a83c"},
		"SF-q32":            {49152, "0977d10891b1b70656bacff66e931b5737ff56d12187aa4c202cef5702ef8986"},
		"SF-q37":            {75295, "713cf98468644ad604fef5b370228c10e28c3d73b9707e8fd8c03c7664ba3d39"},
		"SF-q41":            {102541, "e0efd474db09e75a44aeb347e0e85ad6597226449d254536ced1f1ea242ab9ac"},
		"SF-q43":            {120185, "660a4a7ab123fddf0dc5fcd360db6bfd50ba8fdf207efccae11057bf4be0a1c3"},
		"SF-q5":             {175, "da1814fae122e73e08f7431cb4a576015cb17e1ffb0b615a1e8f7df81db1f586"},
		"SF-q7":             {539, "9f13124eadecf317a311d39b710be34e25d01990af6a5c678f563e7e793c0e6a"},
		"SF-q8":             {768, "bdc449a88d5b4696f58d74c2be9d8da53cc0fae04f9ffe5dbe8b2a121572b18f"},
		"SF-q9":             {1053, "ebc6ea89981e863c03649f93248d65e748cb325affc96163b9c8c3a42850ffc1"},
		"SF@100":            {96, "e9f78b2886b5279925bc721adfb53ea2a9616b0e41763e9705ec79693bb63ef2"},
		"SF@1000":           {1053, "ebc6ea89981e863c03649f93248d65e748cb325affc96163b9c8c3a42850ffc1"},
		"T3D@100":           {300, "6215f5799a0e2f461ff7910b5e0af49d9a0fc98e92b042122dfefff3fb2ed2d4"},
		"T3D@1000":          {3000, "231874aad4eda1101c9c7d1b031b32403c6a498a3843654d082c0f2170e4d79f"},
		"T5D@100":           {432, "24718b110851bb17f176e273232e18964f0f41cc2d74809e5cc4818387139b30"},
		"T5D@1000":          {5120, "2cf6dad75c90ab4731d871b6d13ea601008e5240e9438a19d732295c32c90e2b"},
		"T[2 2 2]":          {12, "f52e1aa694ce52bae77a2027cfec42d10dfaca01b4877d9d72bf5baffa6ca51d"},
		"T[2 5]":            {15, "5caf547095862bee336b0f58a5259714743ad84bb95fec8e10c49df03562b6ff"},
		"T[3 3]":            {18, "0cd640eed9bde69783f91ec0d13299bd79efa3c358ed58190abfd7aa62edf840"},
		"polarity-3":        {24, "baf0a6e5162fa29eea065da20d77a9ccec48097b6ee930409650716ea2240b29"},
		"polarity-4":        {50, "f0cf959da2a203bb6107e80fea33de9d8555d5325a4804af7a884be23bedb441"},
		"polarity-5":        {90, "894c98209e8a6971f9471480cef5d3b384da970999773c03818dd657754d6a6e"},
	}
	for name, g := range builtGraphs(t) {
		for u := 0; u < g.N(); u++ {
			nb := g.Neighbors(u)
			for i, v := range nb {
				if i > 0 && nb[i-1] >= v {
					t.Fatalf("%s: Neighbors(%d) = %v is not strictly ascending", name, u, nb)
				}
				if !slices.Contains(g.Neighbors(int(v)), int32(u)) {
					t.Fatalf("%s: %d lists %d but %d does not list %d", name, u, v, v, u)
				}
			}
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned edges", name)
			continue
		}
		if got := g.EdgeCount(); got != w.edges {
			t.Errorf("%s: %d edges, pinned %d", name, got, w.edges)
		}
		if got := edgesHash(g); got != w.hash {
			t.Errorf("%s: edge hash %q, pinned %q", name, got, w.hash)
		}
	}
}
