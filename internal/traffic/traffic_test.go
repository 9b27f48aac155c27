package traffic_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"time"

	"slimfly/internal/musttest"
	"slimfly/internal/route"
	"slimfly/internal/stats"
	"slimfly/internal/topo"
	"slimfly/internal/topo/dragonfly"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// validate checks that a permutation does not overload endpoints: every
// active destination receives at most one flow (Section V-C's constraint).
func validate(p *traffic.Permutation) error {
	seen := make(map[int32]int)
	for s, d := range p.Dests {
		if d < 0 {
			continue
		}
		if int(d) == s {
			return fmt.Errorf("traffic %s: self-loop at %d", p.PatternName, s)
		}
		if prev, dup := seen[d]; dup {
			return fmt.Errorf("traffic %s: destination %d receives from both %d and %d", p.PatternName, d, prev, s)
		}
		seen[d] = s
	}
	return nil
}

func TestUniform(t *testing.T) {
	u := traffic.Uniform{N: 16}
	rng := stats.NewRNG(1)
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		d := u.Dest(3, rng)
		if d == 3 {
			t.Fatal("uniform generated self-traffic")
		}
		if d < 0 || d >= 16 {
			t.Fatalf("dest %d out of range", d)
		}
		counts[d]++
	}
	for d, c := range counts {
		if d == 3 {
			continue
		}
		if c < 800 || c > 1400 { // expectation ~1067
			t.Errorf("dest %d drawn %d times, expected ~1067", d, c)
		}
	}
}

func TestShufflePattern(t *testing.T) {
	p := traffic.Shuffle(16)
	// b = 4 bits: shuffle of 0b0110 (6) = 0b1100 (12).
	if got := p.Dest(6, nil); got != 12 {
		t.Errorf("shuffle(6) = %d, want 12", got)
	}
	// MSB wraps: 0b1000 (8) -> 0b0001 (1).
	if got := p.Dest(8, nil); got != 1 {
		t.Errorf("shuffle(8) = %d, want 1", got)
	}
}

func TestBitReversal(t *testing.T) {
	p := traffic.BitReversal(16)
	if got := p.Dest(1, nil); got != 8 { // 0001 -> 1000
		t.Errorf("bitrev(1) = %d, want 8", got)
	}
	if got := p.Dest(6, nil); got != 6 { // 0110 -> 0110 palindrome
		t.Errorf("bitrev(6) = %d, want 6", got)
	}
}

func TestBitComplement(t *testing.T) {
	p := traffic.BitComplement(16)
	if got := p.Dest(0, nil); got != 15 {
		t.Errorf("bitcomp(0) = %d, want 15", got)
	}
	if got := p.Dest(5, nil); got != 10 {
		t.Errorf("bitcomp(5) = %d, want 10", got)
	}
}

func TestPermutationInactiveEndpoints(t *testing.T) {
	// N = 20 -> 16 active, 4 inactive.
	p := traffic.BitReversal(20)
	for s := 16; s < 20; s++ {
		if p.Dest(s, nil) != -1 {
			t.Errorf("endpoint %d should be inactive", s)
		}
	}
	active := 0
	for s := 0; s < 20; s++ {
		if p.Dest(s, nil) >= 0 {
			active++
		}
	}
	if active != 16 {
		t.Errorf("active = %d, want 16", active)
	}
}

func TestShift(t *testing.T) {
	sh := traffic.Shift{N: 64}
	rng := stats.NewRNG(2)
	// The paper's two options for source s are (s mod N/2) and
	// (s mod N/2) + N/2; one of them is always s itself, so with
	// self-traffic excluded the pattern resolves to the cross-half
	// partner (s + N/2) mod N.
	for _, s := range []int{0, 5, 31, 32, 37, 63} {
		for i := 0; i < 20; i++ {
			d := sh.Dest(s, rng)
			if d == s {
				t.Fatalf("shift generated self-traffic at %d", s)
			}
			if d != (s+32)%64 {
				t.Fatalf("shift(%d) = %d, want %d", s, d, (s+32)%64)
			}
		}
	}
}

func TestWorstCaseSF(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	p := traffic.WorstCaseSF(sf, tb, 3)
	if err := validate(p); err != nil {
		t.Fatal(err)
	}
	// The pattern must concentrate many length-2 routes over single links:
	// count routed flows per directed link and check the maximum exceeds
	// what uniform traffic would put there on average.
	loads := make(map[[2]int32]int)
	flows := 0
	for s, d := range p.Dests {
		if d < 0 {
			continue
		}
		flows++
		rs, rd := sf.EndpointRouter(s), sf.EndpointRouter(int(d))
		cur := int32(rs)
		for cur != int32(rd) {
			nxt := tb.NextHop(int(cur), rd)
			loads[[2]int32{cur, nxt}]++
			cur = nxt
		}
	}
	if flows < sf.Endpoints()*9/10 {
		t.Errorf("only %d/%d endpoints active", flows, sf.Endpoints())
	}
	max := 0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	// Paper: worst-case limits MIN throughput to ~1/(p+1), i.e. the
	// hottest link carries about p+1 flows (p = 4 for q = 5).
	if max < sf.Concentration() {
		t.Errorf("hottest link carries %d flows, want >= p = %d", max, sf.Concentration())
	}
}

// worstCaseSFNaive is the reference the link-local build replaced: the
// Section V-C pairing with every router asked, for every directed link,
// whether its minimal route to x enters through y -- n*2E routing queries.
func worstCaseSFNaive(t topo.Topology, rt route.Router, seed uint64) *traffic.Permutation {
	n := t.Endpoints()
	dests := make([]int32, n)
	for i := range dests {
		dests[i] = -1
	}
	srcUsed := make([]bool, n)
	dstUsed := make([]bool, n)
	pair := func(s, d int) bool {
		if s == d || srcUsed[s] || dstUsed[d] {
			return false
		}
		dests[s] = int32(d)
		srcUsed[s] = true
		dstUsed[d] = true
		return true
	}
	g := t.Graph()
	for _, e := range g.Edges() {
		for _, dir := range [2][2]int32{{e.U, e.V}, {e.V, e.U}} {
			x, y := int(dir[0]), int(dir[1])
			xEps := t.RouterEndpoints(x)
			for r := 0; r < g.N(); r++ {
				if rt.Distance(r, x) != 2 || rt.NextHop(r, x) != int32(y) {
					continue
				}
				for _, es := range t.RouterEndpoints(r) {
					for _, ed := range xEps {
						if pair(es, ed) {
							pair(ed, es)
							break
						}
					}
				}
			}
		}
	}
	rng := stats.NewRNG(seed)
	var freeSrc, freeDst []int
	for i := 0; i < n; i++ {
		if !srcUsed[i] {
			freeSrc = append(freeSrc, i)
		}
		if !dstUsed[i] {
			freeDst = append(freeDst, i)
		}
	}
	rng.Shuffle(freeDst)
	for i, s := range freeSrc {
		d := freeDst[i]
		if s == d {
			j := (i + 1) % len(freeDst)
			freeDst[i], freeDst[j] = freeDst[j], freeDst[i]
			d = freeDst[i]
			if s == d {
				continue
			}
		}
		dests[s] = int32(d)
	}
	return &traffic.Permutation{PatternName: "worstcase-sf", Dests: dests}
}

// sfBackends returns the two routing backends of one Slim Fly.
func sfBackends(sf *slimfly.SlimFly) map[string]route.Router {
	return map[string]route.Router{
		"tables":   route.Build(sf.Graph()),
		"computed": route.NewComputed(sf.Graph(), sf),
	}
}

func TestWorstCaseSFMatchesNaive(t *testing.T) {
	for _, q := range []int{5, 7, 8, 9, 13} {
		sf := slimfly.MustNew(q)
		for name, rt := range sfBackends(sf) {
			for _, seed := range []uint64{3, 42} {
				got := traffic.WorstCaseSF(sf, rt, seed)
				want := worstCaseSFNaive(sf, rt, seed)
				if !slices.Equal(got.Dests, want.Dests) {
					t.Errorf("q=%d %s seed %d: link-local Dests differ from the all-routers reference", q, name, seed)
				}
			}
		}
	}
}

// destsDigest is the first 8 bytes of SHA-256 over Dests as little-endian
// int32s.
func destsDigest(p *traffic.Permutation) string {
	buf := make([]byte, 4*len(p.Dests))
	for i, d := range p.Dests {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(d))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// TestWorstCaseSFPinned pins the pattern itself (seed 42, balanced
// concentration): the simulator's worst-case results and the cache keys'
// meaning hang off these bytes, on either backend.
func TestWorstCaseSFPinned(t *testing.T) {
	for q, want := range map[int]string{
		5:  "da18ad7e0d323804",
		7:  "98b5f7ea5aee58d4",
		13: "ee4e26442bdc5b05",
		19: "024d3dc18c18a16d",
	} {
		sf := slimfly.MustNew(q)
		for name, rt := range sfBackends(sf) {
			if got := destsDigest(traffic.WorstCaseSF(sf, rt, 42)); got != want {
				t.Errorf("q=%d %s: Dests digest %s, want %s", q, name, got, want)
			}
		}
	}
}

// TestWorstCaseSFQ43 builds the pattern where computed is the only
// backend: 3698 routers and 122 034 endpoints. The all-routers loop made
// ~890 million scan-backed queries here and did not finish in minutes.
func TestWorstCaseSFQ43(t *testing.T) {
	sf := slimfly.MustNew(43)
	start := time.Now()
	p := traffic.WorstCaseSF(sf, route.NewComputed(sf.Graph(), sf), 1)
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("q=43 worst-case build took %v, want under 5s", el)
	}
	if err := validate(p); err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, d := range p.Dests {
		if d >= 0 {
			active++
		}
	}
	if active < sf.Endpoints()*9/10 {
		t.Errorf("only %d/%d endpoints active", active, sf.Endpoints())
	}
}

func BenchmarkWorstCaseSF(b *testing.B) {
	sf := slimfly.MustNew(19)
	backends := sfBackends(sf)
	for _, name := range []string{"tables", "computed"} {
		rt := backends[name]
		b.Run(fmt.Sprintf("%s/q19", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				traffic.WorstCaseSF(sf, rt, 42)
			}
		})
	}
}

func TestWorstCaseDF(t *testing.T) {
	df := musttest.Must(dragonfly.New(2))
	p := traffic.WorstCaseDF(df.Group, df, df.Gn)
	if err := validate(p); err != nil {
		t.Fatal(err)
	}
	// Every flow crosses into the next group.
	perGroup := df.Endpoints() / df.Gn
	for s, d := range p.Dests {
		gs, gd := s/perGroup, int(d)/perGroup
		if (gs+1)%df.Gn != gd {
			t.Fatalf("flow %d->%d goes group %d->%d", s, d, gs, gd)
		}
	}
}

func TestWorstCaseFT(t *testing.T) {
	ft := musttest.Must(fattree.New(4))
	p := traffic.WorstCaseFT(ft.Arity, ft)
	if err := validate(p); err != nil {
		t.Fatal(err)
	}
	perPod := ft.Endpoints() / ft.Arity
	for s, d := range p.Dests {
		if s/perPod == int(d)/perPod {
			t.Fatalf("flow %d->%d stays in pod", s, d)
		}
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	p := &traffic.Permutation{PatternName: "bad", Dests: []int32{1, 1, -1}}
	if validate(p) == nil {
		t.Error("duplicate destination not caught")
	}
	p2 := &traffic.Permutation{PatternName: "self", Dests: []int32{0}}
	if validate(p2) == nil {
		t.Error("self-loop not caught")
	}
}
