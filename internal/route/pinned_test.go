package route_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"slimfly/internal/graphtest"
	"slimfly/internal/route"
)

// tablesHash is the SHA-256 of everything Build produces: the router
// count, MaxDistance, then every Dist row, the next hops toward each
// destination in turn (NextHop(u, d) for d, then u, in ascending order)
// and the flat source-major port table, little-endian.
func tablesHash(tb *route.Tables) string {
	h := sha256.New()
	n := tb.Graph().N()
	binary.Write(h, binary.LittleEndian, [2]int64{int64(n), int64(tb.MaxDistance())})
	for d := 0; d < n; d++ {
		binary.Write(h, binary.LittleEndian, tb.Dist[d])
	}
	next := make([]int32, n)
	for d := 0; d < n; d++ {
		for u := range next {
			next[u] = tb.NextHop(u, d)
		}
		binary.Write(h, binary.LittleEndian, next)
	}
	ports, _ := tb.NextPortFlat()
	binary.Write(h, binary.LittleEndian, ports)
	return hex.EncodeToString(h.Sum(nil))
}

// TestTablesPinned holds route.Build to the bytes it produced when the
// tables were one BFS per destination: any change of algorithm has to
// reproduce every distance, next hop (the lowest-id tie-break) and port
// on the whole pin list. "two-components" was re-recorded when graphs
// became sorted at construction: it was the one pinned graph built with an
// unsorted adjacency (0's neighbours listed as 1, 8, 4), which the
// tie-break and ports followed.
func TestTablesPinned(t *testing.T) {
	want := map[string]string{
		"SF@100":         "10dc83d4646e24846c97b9f9e81f2473766f52a8d192ff1dce9d91f7ed654dd6",
		"DF@100":         "571e2fee20835e9dc13469a47bc1d8eb4bb6b39771eb92bf7c923982fb2f2e5b",
		"FT-3@100":       "9d48c634393a89eb65793737572f0baf1c529263dabc1377056e08296df69e66",
		"FBF-3@100":      "fa120bb1dc5e9acd28e18eade264eb970a50b387f2e0aa28149b9bff4acbdf13",
		"T3D@100":        "9f0a4cf9726ffed547a1d1f63f3ba8def0cdb0dfcc7319d367ea2566723c5160",
		"T5D@100":        "08aafc44df41ff7b9d9c88aa72f8eb0ee4460dd5681bbe0d42a8029255e86662",
		"HC@100":         "e9e1f937d4ed52a46a937366035e144de2ba1a23dc0cb14aa5c7db4c4e5268d2",
		"LH-HC@100":      "1be04db1fcaa19d1dd6791a841ad7be7a4efb6062cf111d255ac3ddd476467b7",
		"DLN@100":        "4aa92aa5b8246bad201631b4dd98eb15624c680a88ad989d6659058da3d7c8e2",
		"SF@1000":        "e972e07f06328ef7071882730f74c412ba14cedd528c6a1de4a2fa3605c6436d",
		"DF@1000":        "def801a0f6da834957860103bd591eade52256dba5fbad7e2cae7bb98eaedf93",
		"FT-3@1000":      "e9a4bfce029b7f1181942a5996d2be3e500241bed7a5ad8dd1986578f4eab0fb",
		"FBF-3@1000":     "d76333aa14cac08e457930f2109897c34576fd3623c43bd42aae96396af9a13a",
		"T3D@1000":       "c511d81670be87f28acdacce40e77c97061e5c4bfe6d38801e3489e5eb1eb6e7",
		"T5D@1000":       "95cff903651e8bc110fabab4501865cd6b220dfcfeaece44b25fd51c6fc89b49",
		"HC@1000":        "f1ffead24f33a2c7837b85990522f9839d36111b8bf808221d5c93b6407edadc",
		"LH-HC@1000":     "19f71a0ef9233a50175f52eae1cd2a366ab6da4230b3c3a0785ca30610a439aa",
		"DLN@1000":       "45c70aa7eb940ea9c50ae063e60d9a3ab713116b7a3d987c9188068d50d82ddb",
		"SF-q5-p4":       "06eeac5d6eb4671673a551c3ece9b063bec6568011b2755e22a0ee178d93199f",
		"SF-q7-p4":       "d5fb2ad66fdd8b1ffa2db16190f237d0212470a6dfb3f86d91da8277e0c23e9e",
		"SF-q11-p4":      "bb3d8ab23430b21070c15837f97d3e08136ee7af94a28dea0a06d44f316a69ce",
		"SF-q19-p4":      "37e0afe3ce79ad97e315776f543ed37540d7ff9ce615c1255a8ed0207fc2b72f",
		"two-components": "00c6950f532e803bc46be7593e1bc346c797570d445727efbb13e6bf9dc492a1",
		"path-41":        "079871ac4a86ac4918afa357b7f80d8a11f54882925607902041c2b093aa9873",
		"ring-200":       "b3e50a52bc3438fd99407b4783eddff017741dc6a7e8e3178ce565d8ed7b2f0f",
		"n0":             "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
		"n1":             "37789a2cae8865c0139dd7766f148067b3d56f5cc25b7724559289ea97616b02",
		"n63":            "1be31701884606da47343e0aab2a918841f688f406136fcb4c1d56f0a49810ac",
		"n64":            "ebcaa91f1a4cc934af925d3691b53cffbf38ed77d6248555c8ea903bdf9ef19b",
		"n65":            "f986a1e0f8a74bfd22cfff0f5d913d2a03e05487da0fca728623b8a812a162b8",
	}
	for _, c := range graphtest.Pinned(t) {
		if got := tablesHash(route.Build(c.G)); got != want[c.Name] {
			t.Errorf("%s: tables hash %q, pinned %q", c.Name, got, want[c.Name])
		}
	}
}

// TestVCLayeringPinned holds ComputeVCLayering on the Section IV-D
// networks to the layer count and the SHA-256 of ByDest (one little-endian
// int64 per destination) it produced when every check was a Kahn pass.
func TestVCLayeringPinned(t *testing.T) {
	want := map[string]struct {
		layers int
		byDest string
	}{
		"SF q=5":     {3, "7bba6d8994b0a57a038245aec7e43a93897fdc53df75a3e9ce41516128c370cf"},
		"SF q=7":     {2, "cacfc3ec3937e2723cf821671bce2c335dd2989ae88eafebab99af20d53e64ac"},
		"SF q=9":     {3, "f813592f7f7ab3d93985d454ea199b864fdb963742d43c7049001f52dc9efb68"},
		"SF q=11":    {3, "fbe68404af8fd6727c7daf9f72d817ee1c00ad421afeb2cff1ab41fe83f43b7c"},
		"SF q=13":    {3, "7e9620377984121197dc451a764d9fc1c7adc4e4e50c0704f0f38b6916fb58df"},
		"DLN N=338":  {3, "adf71a706fa5e232b6bfd305914840e88559fe2282c8ba0b588068df7127754d"},
		"DLN N=1682": {16, "d6c078345bf86677a8ec971002d7feca3e3575d83fa25c60d129a517fa76a862"},
	}
	for _, c := range vcCases(t) {
		vl := route.ComputeVCLayering(route.Build(c.G))
		byDest := make([]int64, len(vl.ByDest))
		for d, l := range vl.ByDest {
			byDest[d] = int64(l)
		}
		h := sha256.New()
		binary.Write(h, binary.LittleEndian, byDest)
		got := hex.EncodeToString(h.Sum(nil))
		if w := want[c.Name]; vl.Layers != w.layers || got != w.byDest {
			t.Errorf("%s: %d layers, ByDest hash %q; pinned %d, %q", c.Name, vl.Layers, got, w.layers, w.byDest)
		}
	}
}
