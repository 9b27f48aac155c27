package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"slimfly/internal/metrics"
	"slimfly/internal/route"
	"slimfly/internal/stats"
	"slimfly/internal/topo"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// genScenario is one drawn row of TestGeneratedScenarioParity's table.
type genScenario struct {
	name string
	cfg  Config
}

// generatedScenarios draws the scenario table from one stats.RNG stream,
// so the table -- and with it every pinned hash -- is a pure function of
// the literal seed below. Rows cycle through three networks (SF q=5 on
// BFS tables, SF q=7 on the computed backend, FT-3 arity 4 under ANCA
// with free VC selection) and draw the algorithm, the pattern, the load,
// the buffering (1..4 flits per VC), the crossbar speedup and the run seed.
// The windows are short and the drain budget tight on purpose: high loads
// on one-flit buffers end Saturated, which is where the credit- and
// staging-exhaustion branches of the allocator run.
func generatedScenarios() []genScenario {
	type network struct {
		name  string
		tp    topo.Topology
		rt    route.Router
		algos []Algo
	}
	sf5, sf7, ft := slimfly.MustNew(5), slimfly.MustNew(7), fattree.MustNew(4)
	sfAlgos := []Algo{MIN{}, VAL{}, VAL3{}, UGALL{}, UGALG{}}
	nets := []network{
		{"SF5", sf5, route.Build(sf5.Graph()), sfAlgos},
		{"SF7c", sf7, route.NewComputed(sf7.Graph(), sf7), sfAlgos},
		{"FT4", ft, route.Build(ft.Graph()), []Algo{FTANCA{FT: ft}}},
	}
	rng := stats.NewRNG(0x5f14)
	var out []genScenario
	for i := 0; i < 60; i++ {
		nw := nets[i%len(nets)]
		algo := nw.algos[rng.Intn(len(nw.algos))]
		n := nw.tp.Endpoints()
		var pat traffic.Pattern
		switch rng.Intn(4) {
		case 0:
			pat = traffic.Uniform{N: n}
		case 1:
			pat = traffic.BitComplement(n)
		case 2:
			pat = traffic.Shift{N: n}
		default:
			if f, ok := nw.tp.(*fattree.FatTree); ok {
				pat = f.WorstCase(nw.rt, 0)
			} else {
				pat = traffic.WorstCaseSF(nw.tp, nw.rt, rng.Uint64())
			}
		}
		load := 0.05 + 0.95*rng.Float64()
		vcs := algo.Paths().MaxHops(nw.rt.MaxDistance())
		flits := 1 + rng.Intn(4)
		speedup := 1 + rng.Intn(3)
		out = append(out, genScenario{
			name: fmt.Sprintf("%02d-%s-%s-%s-l%.2f-b%d-s%d", i, nw.name, algo.Name(), pat.Name(), load, flits, speedup),
			cfg: Config{
				Topo: nw.tp, Router: nw.rt, Algo: algo, Pattern: pat, Load: load,
				NumVCs: vcs, BufPerPort: flits * vcs, Speedup: speedup,
				Warmup: 60, Measure: 160, Drain: 150,
				Metrics: "latency,channels,fairness", Seed: rng.Uint64(),
			},
		})
	}
	return out
}

// generatedParityWant holds the SHA-256 of each generated scenario's
// (Result, MetricsSummary) JSON, in table order. The literals were
// recorded from the serial allocator of the commit before the engine was
// fused onto one allocator (its last independent implementation) and must
// never change silently: with one allocator left, allocRouter, they are what
// "the same simulated statistics" means.
var generatedParityWant = [...]string{
	"ccc1e4df0d4f5b83da890f73c8969ace22609026a989dffd437815788516ef88", // 00-SF5-UGAL-G-shift-l0.62-b2-s2
	"456118fcc8db1d7654d2bf68068770da427b19a92d9dc6e4e9e2e3a27e497219", // 01-SF7c-MIN-shift-l0.60-b1-s1
	"72935de7edd0dea4b1cfba3f9367cae0caeae59151f1e0a1bc1f43e34463f873", // 02-FT4-ANCA-worstcase-ft-l0.99-b4-s1
	"18a0bd2c9a53fcff4e646cbeabc5468c2d92819e238d564fd62588a05d6e6d22", // 03-SF5-UGAL-L-shift-l0.96-b1-s3
	"21b3567274956d598cc26b32c221b8bbc2022a58a96381d3447fb8657695f3d2", // 04-SF7c-UGAL-G-shift-l0.08-b1-s2
	"e280b0ee9376cbcd6008d306af64becc52dba181980bd7d164ee9ea0ad64fbda", // 05-FT4-ANCA-worstcase-ft-l0.83-b4-s1
	"d29156e92f980032df546d158d0b747c5295189f228cd077e28b7405008b48fa", // 06-SF5-VAL-3hop-bitcomp-l0.90-b2-s2
	"c11efe151de7524681a5c5bec6d248f4b188711f04f284a64ddbb8b1105612d1", // 07-SF7c-MIN-bitcomp-l0.68-b2-s2
	"e6c38808618e0961c52e85d37347a6c97e6f91b2ca8ad7f6e094762e14d807dd", // 08-FT4-ANCA-bitcomp-l0.39-b4-s3
	"48569c4b1ba0b9b9190f8016bc45aff3cde34cc754cf87b678aee2ab36563a52", // 09-SF5-UGAL-G-worstcase-sf-l0.64-b4-s3
	"0b1ef586a34c1a752601f14c2e002a5d8d7ccba8dd9d6ab5b5f75a0b65178301", // 10-SF7c-MIN-worstcase-sf-l0.86-b4-s3
	"9cc95b03eaca400d569503bba9a4879ac3c9597f86006cb73721eef19387302f", // 11-FT4-ANCA-worstcase-ft-l0.15-b3-s1
	"02e04b220e32909f59c819ed72e7e3722c2f2ab2b937f568def57b668b45469f", // 12-SF5-VAL-3hop-uniform-l0.99-b2-s3
	"038bcae1d187fe3864963e368a4270738dacdc8e581d367e576b1a50bf752331", // 13-SF7c-VAL-3hop-uniform-l0.31-b3-s2
	"ffd4808feb9c2002b1e48ff134636e2571d56e852e77e7d9b0801726c6fc80bf", // 14-FT4-ANCA-worstcase-ft-l0.55-b4-s2
	"61f9d46425f5aef24edbc6da7a88017e67b918c198b9036ecdf96e788f3f829a", // 15-SF5-VAL-shift-l0.97-b3-s1
	"540b662306adde405f12afb2c2dfed27f9c20b5b48235c14262b9122a45a8e8a", // 16-SF7c-UGAL-L-bitcomp-l0.89-b1-s1
	"db51eddb166475e1fc08bf987110b55f2a933a4e62197ca01ce26b106c92e4ae", // 17-FT4-ANCA-worstcase-ft-l0.34-b4-s1
	"5fae4c3139436a112d9d67db987f718fdea6af373d4711488f2043b53bd2f4cf", // 18-SF5-VAL-3hop-uniform-l0.82-b1-s3
	"9c15c43c02be48e5b4e9cd12547768505fb18b1c06dbc72d3773ca03ca9c88c6", // 19-SF7c-VAL-3hop-worstcase-sf-l0.72-b1-s1
	"c2a2fa6c19ee22f053824f97a66180eca5f88b93fed6b97f75a127cbd0de9ed7", // 20-FT4-ANCA-worstcase-ft-l0.76-b2-s2
	"e00932f3d682a7e8d9595453626d3067d4e0042f6a6692e650f68bc3ac9838c5", // 21-SF5-UGAL-L-bitcomp-l0.34-b1-s1
	"28995fee7962dbb911d1041d7b44c88ca1c34cac3972fe6f32369c2c3237e476", // 22-SF7c-UGAL-G-worstcase-sf-l0.23-b2-s2
	"1a78dc8658fb6cd875a4691292d5a6a2b4ad4c081bf4a1d3443cd7d3b076a36d", // 23-FT4-ANCA-uniform-l0.63-b1-s1
	"ab8d523810cfd1c499a83da9ccc94c45da4d207962325afbcf735db20420fa4f", // 24-SF5-VAL-uniform-l0.41-b4-s2
	"162bc7e5d234758c9997a4608df983af3af56e39ebb66063fa55b3814b5d692b", // 25-SF7c-VAL-3hop-uniform-l0.85-b2-s2
	"2bc55c75c2b76526c2419867612e907e33a6540f8df3f8048136248420c9bd6a", // 26-FT4-ANCA-uniform-l0.12-b2-s2
	"a1733a55e5f1a2da7e55c06e315596b74a072ed295f478053073c445250cd95f", // 27-SF5-UGAL-G-bitcomp-l0.73-b2-s2
	"7db1257ebbb9ae5ff2229066950a8e64ab866dd2e162ced3ff19463030820ba3", // 28-SF7c-UGAL-L-uniform-l0.98-b4-s3
	"f028078da9bb8f2b0b48d1727da1974916471e889cee3ed8fac2b1757d0fd84c", // 29-FT4-ANCA-uniform-l0.38-b3-s2
	"f9ff97e12271d43131afca109f16b628646a8648b9c9d563f037853acf14d1b9", // 30-SF5-MIN-uniform-l0.26-b4-s1
	"678d5b9ec2b87853f2444b9865d80c33c8cb903654f1183e2587b6e9179b13fd", // 31-SF7c-MIN-shift-l0.79-b4-s3
	"d2c2f42b975a2f468bec4eb6a030fbf263cd2d154e5bfd35e81aacfebfca1a3c", // 32-FT4-ANCA-worstcase-ft-l0.44-b3-s3
	"f514b73a6d430d9beee5256a4a542dd34b58dcf0c540ad53324986ca916cbfe4", // 33-SF5-UGAL-L-uniform-l0.16-b3-s1
	"951d44b5afe0ea092bfd326eb458cc647025b7f6113081fa33a689258a86c7dd", // 34-SF7c-MIN-shift-l0.19-b3-s2
	"098d04e7be6004bbdeb035a4ecc1f1ab968459b5a8e7873b05e1a843b2ed226f", // 35-FT4-ANCA-uniform-l0.54-b1-s1
	"0ab1b369e27fd0d5dd286f4138125c42a084e88985cd328f5be255e1300dcc39", // 36-SF5-UGAL-G-shift-l0.14-b4-s1
	"e4414c33559c1f8f9bbfa041be9ed0167f6c5536105a74c956f7b768d620d7b6", // 37-SF7c-UGAL-G-bitcomp-l0.52-b2-s2
	"cd5a3ab09cb9e4ed7815cd219062613250505f5f8ba16643f3a0ff71db178166", // 38-FT4-ANCA-uniform-l0.09-b2-s2
	"a23aeb9750c90e41c41257da7e9113a17a808aa3ae6040d058ba86a0e793466a", // 39-SF5-VAL-3hop-worstcase-sf-l0.34-b3-s1
	"632101f26a17771de608e2ae023e8014c4e81788e6e686cb959caa4c4712ea29", // 40-SF7c-UGAL-L-uniform-l0.34-b1-s3
	"56541768031dfb382befaea256485eb690c359a173209415b2725166c61551e5", // 41-FT4-ANCA-uniform-l0.70-b2-s1
	"0ba476ad586239d6ca3a9b82ab2b7021f683552c1ddd7672a5c31282cb10d5ea", // 42-SF5-UGAL-L-bitcomp-l0.16-b1-s3
	"78284dcfb57c5e7f5d78d21e69a74e33e3ce199cdb97d434229778e2552b46af", // 43-SF7c-VAL-3hop-bitcomp-l0.33-b3-s2
	"a877abc44373523d4822d5404b62805711beb43125365068ff5e5ec58606bd0e", // 44-FT4-ANCA-shift-l0.68-b1-s1
	"5095dde3e2cf07f3230e279b9b55e7f72500bf4094ee7190bfa81c880fb3939b", // 45-SF5-UGAL-L-bitcomp-l0.24-b2-s3
	"bfd1bec69f67f0bd57f2259929af9c0e0098edf69e4ffc121183948edfc8b5d0", // 46-SF7c-UGAL-G-worstcase-sf-l0.23-b2-s2
	"49ebb2161adec34b0cc1fa3c9832ae5582e7d06f57ee3f35af5946ba2d454013", // 47-FT4-ANCA-worstcase-ft-l0.79-b4-s3
	"7b636acfa4328b2ecd15e2d3b2be3243e40d05fe01bf4ed59d6c5bf4bb2ed0f9", // 48-SF5-UGAL-L-worstcase-sf-l0.72-b1-s2
	"de4986a10ac4989f4d33e37551ae44ab3a74ab2b4fe5de3fbf03f447ec4c6488", // 49-SF7c-UGAL-G-worstcase-sf-l0.07-b4-s2
	"c27572e3245d2da3acf2c44e40541fc8509e765f1072f28c438a1228b9cf6771", // 50-FT4-ANCA-shift-l0.93-b2-s1
	"a7c429739fbce43d1d40cde099c21b20dffdf56c3384af805c397683972301de", // 51-SF5-VAL-3hop-bitcomp-l0.84-b2-s3
	"1c058f1cc761daa70ab6a504a77fd874dfcb256a538b319aaa07422fc84114e2", // 52-SF7c-VAL-3hop-worstcase-sf-l0.28-b4-s2
	"ab41d58043d506910d956d137d210ae797693b48e0b1d1f02024bd3b39306d37", // 53-FT4-ANCA-uniform-l0.86-b3-s2
	"69d1feb12fd1c77f39c28e7d61b40caf1dc09de3baa0f2218bcfa51fe12ebccd", // 54-SF5-UGAL-L-bitcomp-l0.21-b4-s3
	"203f2de9eb58d0b634ea8524c7f606863cafab4152a668d8095349337755ed41", // 55-SF7c-VAL-uniform-l0.73-b2-s2
	"0f81cdf8685737e4587cae9b5db6470bb5aa782e506a8a471a302fd8c83ced57", // 56-FT4-ANCA-shift-l0.56-b4-s1
	"ff884f9f22f270119539082ba69d9e32bf1ab9fa9879044cf63f6ee0aea46cc7", // 57-SF5-VAL-worstcase-sf-l0.94-b4-s3
	"e287ad6caf715fb5b64ef729a7505ff2ec3f45c87785632f7af01d4b5b999c0b", // 58-SF7c-VAL-3hop-worstcase-sf-l0.27-b3-s2
	"8d83225d7c40cda380ea71b0f375acc459a560d367686b9bd762839c459b5237", // 59-FT4-ANCA-worstcase-ft-l0.30-b1-s2
}

// TestGeneratedScenarioParity is the parity wall over generated scenarios
// instead of six goldens at load 0.3: every drawn scenario must hash to
// its pinned literal. At least a third of the table has to end Saturated,
// so back-pressure is actually exercised.
func TestGeneratedScenarioParity(t *testing.T) {
	scs := generatedScenarios()
	if len(scs) != len(generatedParityWant) {
		t.Fatalf("%d scenarios, %d pinned hashes", len(scs), len(generatedParityWant))
	}
	run := func(t *testing.T, cfg Config) (Result, []byte) {
		res, sum, err := RunSummary(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(struct {
			Result  Result
			Summary *metrics.Summary
		}{res, sum})
		if err != nil {
			t.Fatal(err)
		}
		return res, data
	}
	// The scenarios run as parallel subtests (they share only immutable
	// topologies, routing backends and patterns); the group returns once
	// all of them have.
	var nSat atomic.Int32
	t.Run("scenarios", func(t *testing.T) {
		for i, sc := range scs {
			t.Run(sc.name, func(t *testing.T) {
				t.Parallel()
				res, data := run(t, sc.cfg)
				if res.Saturated {
					nSat.Add(1)
				}
				if res.Accepted == 0 {
					t.Error("no flit delivered inside the window")
				}
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != generatedParityWant[i] {
					t.Errorf("hash %q differs from the pinned literal", got)
				}
			})
		}
	})
	saturated := int(nSat.Load())
	if saturated*3 < len(scs) {
		t.Errorf("only %d of %d scenarios end saturated; want at least a third", saturated, len(scs))
	}
	t.Logf("%d scenarios, %d saturated", len(scs), saturated)
}
