package exp

import (
	"os"
	"testing"

	"slimfly/internal/sweep"
)

func TestFig6SpecsExpand(t *testing.T) {
	sc := SmallScale()
	specs := Fig6Specs("uniform", sc, 1)
	jobs, err := sweep.ExpandAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	// 6 protocol curves (SF x 4, DF x UGAL-L, FT-3 x ANCA) x load grid.
	want := 6 * len(sc.Loads)
	if len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	byTopo := map[string]int{}
	for _, j := range jobs {
		byTopo[j.Topo.Kind]++
		if j.Topo.Kind == "FT-3" && j.Algo != "anca" {
			t.Errorf("FT-3 paired with %s", j.Algo)
		}
		if j.Topo.Kind != "FT-3" && j.Algo == "anca" {
			t.Errorf("anca paired with %s", j.Topo.Kind)
		}
	}
	if byTopo["SF"] != 4*len(sc.Loads) || byTopo["DF"] != len(sc.Loads) || byTopo["FT-3"] != len(sc.Loads) {
		t.Errorf("per-topology job counts: %v", byTopo)
	}
}

func TestFig8aSpecsExpand(t *testing.T) {
	specs := Fig8aSpecs(SmallScale(), 1)
	jobs, err := sweep.ExpandAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6*6 { // 6 buffer depths x 6 loads
		t.Fatalf("jobs = %d, want 36", len(jobs))
	}
	// Buffer depth is the distinguishing axis; every job must hash
	// uniquely even though topology/algo/pattern/load repeat.
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Key()] {
			t.Fatalf("duplicate key across buffer depths: %s", j.Label())
		}
		seen[j.Key()] = true
	}
}

// TestFig8beSpecsExpand: two oversubscribed concentrations x (uniform on
// four loads + worst case on five) x four protocols, every network an
// exact-order Slim Fly so the job names its q and p.
func TestFig8beSpecsExpand(t *testing.T) {
	specs, err := Fig8beSpecs(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sweep.ExpandAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*4*(4+5) {
		t.Fatalf("jobs = %d, want 72", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Key()] {
			t.Fatalf("duplicate key: %s", j.Label())
		}
		seen[j.Key()] = true
		if j.Topo.Kind != "SF" || j.Topo.Q == 0 || j.Topo.P == 0 {
			t.Errorf("%s: topology %+v, want SF with explicit q and p", j.Label(), j.Topo)
		}
	}
}

// TestFig6SpecsMatchExampleFile: the README presents
// examples/sweeps/fig6a.json as the Figure 6a grid; it must expand to
// exactly the jobs Fig6Specs generates, so results cached under one are
// hits for the other.
func TestFig6SpecsMatchExampleFile(t *testing.T) {
	f, err := os.Open("../../examples/sweeps/fig6a.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fileSpecs, err := sweep.ParseSpecs(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweep.ExpandAll(fileSpecs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.ExpandAll(Fig6Specs("uniform", SmallScale(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fig6a.json expands to %d jobs, Fig6Specs to %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Errorf("job %d: fig6a.json has %s, Fig6Specs has %s", i, got[i].Label(), want[i].Label())
		}
	}
}
