package graph_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/graphtest"
)

// statsHash is the SHA-256 of a PathStats, the histogram's length
// included: callers index Histogram[d] for small d without a bounds check
// of their own, so its 16-entry minimum is part of what is pinned.
func statsHash(st graph.PathStats) string {
	h := sha256.New()
	connected := int64(0)
	if st.Connected {
		connected = 1
	}
	binary.Write(h, binary.LittleEndian, [5]int64{
		int64(st.Diameter), int64(math.Float64bits(st.AvgDist)), connected, st.Pairs, int64(len(st.Histogram)),
	})
	binary.Write(h, binary.LittleEndian, st.Histogram)
	return hex.EncodeToString(h.Sum(nil))
}

// TestAllPairsStatsPinned holds AllPairsStats to what one BFS per vertex
// reported on the whole pin list.
func TestAllPairsStatsPinned(t *testing.T) {
	want := map[string]string{
		"SF@100":         "509c9db6b68408b46b20ca83eb97c8e8a3148981f7294dcbb56af8d3f14dcfe9",
		"DF@100":         "aaff2c11006cb149bdec6416e54134a080d302e514177bbc844a18b92376e542",
		"FT-3@100":       "2fa881be4a4a457bcf679bd004e0acdc495fadcb1b92a514d8d9105a6222dc03",
		"FBF-3@100":      "321f0845fb00788c059da82fefc703c5a36501d781c6c8395a14c340315659b4",
		"T3D@100":        "d60bb51c6b54228d9091fa76db744e1b13913b5957a57cbe457952d3daf9cd31",
		"T5D@100":        "767ac57811e3ec452ec75a4db3af6669973e1be8241e935918d150f3b50417de",
		"HC@100":         "b83b3e658e9bef1c2064a1668a4132a3c8075b78c45d604fd62c7280e31e8359",
		"LH-HC@100":      "9621754690c199d1a19721655477d0c5dcd308a4f35fe347b669a97c0cd61dba",
		"DLN@100":        "0f67ecfea8c2defd16a2f57c7b5874fcd787aa61921c969d7786ad305327d736",
		"SF@1000":        "f52ea8942cbbcfc36b163610f69068980119f4078d6b2d70c1a3b24515b6c07a",
		"DF@1000":        "545f0dd49f084b7461dd0dd8a0d3c3c95d21fb73647b253f891476f7a9c184ab",
		"FT-3@1000":      "c69fa6adb016f6a3037f1158c218aaedb9370a10923f2d9b86609b68c161d4ed",
		"FBF-3@1000":     "37d0483da5bb1ebfb849eaaa99a5b74be0dbcaa39c92d24ebac22011c07ac084",
		"T3D@1000":       "30deddac08eef46ba59d7c3f2b80e6973a90b74121a49ba15f7545f8806eb637",
		"T5D@1000":       "f21a45ab4751495f3a778a40dbb4691efbffa4a4e85426dd2c26c4bf52cfc03c",
		"HC@1000":        "f21a45ab4751495f3a778a40dbb4691efbffa4a4e85426dd2c26c4bf52cfc03c",
		"LH-HC@1000":     "804bd48ff432c98fdf2db1ff43973d515563db387b5d87562c7e13b356766f9a",
		"DLN@1000":       "0c7962297141b599af18a53d39fcae0a9716b3aad81bd5e078282ec0665bf77c",
		"SF-q5-p4":       "c9fc21688774b7eebb677964eadcedcade2b353aad2bc7232a1d3c868152d448",
		"SF-q7-p4":       "c09d8d2b0f15859bef0121522e061b4f8e7e9dff2f037c190979279b80245d5f",
		"SF-q11-p4":      "caad5db81a95bd89f98d88790deca38a3105a1289e1ecad0c86abebedcbe1ebd",
		"SF-q19-p4":      "9f054a95b0528e5c3f61e1d39afd3d3e874a4cbf5d84c35dc3b1e5a731a51c44",
		"two-components": "a70a8fbaa2f7908429179a5f7ae335a5b6bb1b0ca467d20c96886874e77c1e5f",
		"path-41":        "52a117e11e7163e9e2f2feff40e71ed4ed3e420976a75c3e9430a0395dc91a9c",
		"ring-200":       "252626febb4d7b889db7dcbd15b5f2246a1202615c8df6e5490a73bb02867cda",
		"n0":             "4a8cf29512936880af40a0ebade5dd3d0781cb9ae5481f07f1db7c55edaae797",
		"n1":             "4a8cf29512936880af40a0ebade5dd3d0781cb9ae5481f07f1db7c55edaae797",
		"n63":            "ffc09429c032b4a08b4a299ef1a75a418b1972ce6a7e99b919845cffdb714ee3",
		"n64":            "e3006dec85135c4b66f2b74f57d7bcf81ecfc87fd0ce881a5717f6435d07150b",
		"n65":            "1d4b2306148f8b1315b1f92480e54a90a87a5bb1d818df5acb89fee1052efffa",
	}
	for _, c := range graphtest.Pinned(t) {
		st := c.G.AllPairsStats()
		if len(st.Histogram) < 16 {
			t.Errorf("%s: histogram has %d entries, callers may index the first 16", c.Name, len(st.Histogram))
		}
		if got := statsHash(st); got != want[c.Name] {
			t.Errorf("%s: stats hash %q, pinned %q", c.Name, got, want[c.Name])
		}
	}
}
