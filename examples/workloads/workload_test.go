package main

import (
	"testing"

	"slimfly/internal/stats"
)

func TestStencil3DNeighbours(t *testing.T) {
	s := Stencil3D{Dx: 4, Dy: 4, Dz: 4}
	rng := stats.NewRNG(1)
	// Interior rank: all six destinations at grid distance 1.
	src := 1 + 4 + 16 // (1,1,1)
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		d := s.Dest(src, rng)
		seen[d] = true
		diff := d - src
		switch diff {
		case 1, -1, 4, -4, 16, -16:
		default:
			t.Fatalf("non-neighbour destination %d from %d", d, src)
		}
	}
	if len(seen) != 6 {
		t.Errorf("interior rank reached %d neighbours, want 6", len(seen))
	}
	// Corner rank (0,0,0): only 3 neighbours.
	seen = map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[s.Dest(0, rng)] = true
	}
	if len(seen) != 3 {
		t.Errorf("corner rank reached %d neighbours, want 3", len(seen))
	}
}

func TestNewStencil3DCoversRanks(t *testing.T) {
	for _, n := range []int{8, 100, 1000, 1134} {
		s := NewStencil3D(n)
		if s.Ranks() < n*3/4 {
			t.Errorf("n=%d: grid %dx%dx%d covers only %d ranks", n, s.Dx, s.Dy, s.Dz, s.Ranks())
		}
	}
}

func TestStencilInactiveBeyondGrid(t *testing.T) {
	s := Stencil3D{Dx: 2, Dy: 2, Dz: 2}
	if s.Dest(8, stats.NewRNG(1)) != -1 {
		t.Error("rank beyond grid should be inactive")
	}
}

func TestAllToAllSweep(t *testing.T) {
	a := NewAllToAll(5)
	// Over 4 draws, source 2 must hit every other rank exactly once.
	seen := map[int]int{}
	for i := 0; i < 4; i++ {
		d := a.Dest(2, nil)
		if d == 2 {
			t.Fatal("self destination")
		}
		seen[d]++
	}
	if len(seen) != 4 {
		t.Errorf("sweep covered %d destinations, want 4: %v", len(seen), seen)
	}
	for d, c := range seen {
		if c != 1 {
			t.Errorf("destination %d hit %d times", d, c)
		}
	}
}

func TestAllGatherRing(t *testing.T) {
	a := AllGatherRing{N: 7}
	if a.Dest(6, nil) != 0 || a.Dest(0, nil) != 1 {
		t.Error("ring neighbour wrong")
	}
}

func TestAllReduceRD(t *testing.T) {
	a := NewAllReduceRD(1000) // 512 active
	if a.Ranks() != 512 {
		t.Fatalf("ranks = %d", a.Ranks())
	}
	rng := stats.NewRNG(2)
	if a.Dest(600, rng) != -1 {
		t.Error("rank 600 should be inactive")
	}
	for i := 0; i < 200; i++ {
		d := a.Dest(37, rng)
		x := d ^ 37
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("partner %d not at power-of-two distance from 37", d)
		}
	}
}

func TestGraphZipfSkew(t *testing.T) {
	g := NewGraphZipf(100, 0.9, 3)
	rng := stats.NewRNG(4)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		d := g.Dest(50, rng)
		if d < 0 || d >= 100 || d == 50 {
			t.Fatalf("bad destination %d", d)
		}
		counts[d]++
	}
	// Skewed: the hottest endpoint should receive far more than uniform
	// share (200).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 600 {
		t.Errorf("hottest endpoint got %d draws; want clear skew over uniform 200", max)
	}
}

func TestGraphZipfDeterministicRanking(t *testing.T) {
	a := NewGraphZipf(50, 0.7, 9)
	b := NewGraphZipf(50, 0.7, 9)
	for i := range a.rank {
		if a.rank[i] != b.rank[i] {
			t.Fatal("ranking not deterministic")
		}
	}
}

func TestStencilGridFitsWithinRanks(t *testing.T) {
	for _, n := range []int{8, 27, 100, 588, 600, 1134, 10830} {
		s := NewStencil3D(n)
		if s.Ranks() > n {
			t.Errorf("n=%d: grid %dx%dx%d has %d ranks > n", n, s.Dx, s.Dy, s.Dz, s.Ranks())
		}
	}
	// Every destination must stay inside the grid (and hence inside n).
	s := NewStencil3D(588)
	rng := stats.NewRNG(8)
	for src := 0; src < s.Ranks(); src++ {
		for i := 0; i < 8; i++ {
			if d := s.Dest(src, rng); d < 0 || d >= s.Ranks() {
				t.Fatalf("src %d produced destination %d outside grid", src, d)
			}
		}
	}
}
