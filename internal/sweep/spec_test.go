package sweep

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func testSpec() *Spec {
	return &Spec{
		Name:     "t",
		Topos:    []TopoSpec{{Kind: "SF", Q: 5}, {Kind: "SF", Q: 7}},
		Algos:    []string{"min", "val"},
		Patterns: []string{"uniform", "shift"},
		Loads:    []float64{0.1, 0.2, 0.3},
		Seeds:    []uint64{1, 2},
		Sim:      SimParams{Warmup: 50, Measure: 100, Drain: 500},
	}
}

func TestExpandDeterministic(t *testing.T) {
	s := testSpec()
	a, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same spec differ")
	}
	want := 2 * 2 * 2 * 3 * 2 // topos x patterns x algos x loads x seeds
	if len(a) != want {
		t.Fatalf("expanded to %d jobs, want %d", len(a), want)
	}
	// Keys are unique across the grid.
	seen := map[string]bool{}
	for _, j := range a {
		k := j.Key()
		if seen[k] {
			t.Fatalf("duplicate key for %s", j.Label())
		}
		seen[k] = true
	}
}

func TestExpandFiltersIncompatible(t *testing.T) {
	s := &Spec{
		Name:  "mixed",
		Topos: []TopoSpec{{Kind: "SF", Q: 5}, {Kind: "FT-3", N: 64}},
		Algos: []string{"min", "anca"},
		Loads: []float64{0.5},
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// SF gets min only; FT-3 gets both min and anca.
	if len(jobs) != 3 {
		t.Fatalf("expanded to %d jobs, want 3", len(jobs))
	}
	for _, j := range jobs {
		if j.Algo == "anca" && j.Topo.Kind != "FT-3" {
			t.Errorf("anca paired with %s", j.Topo)
		}
	}
}

func TestExpandDefaults(t *testing.T) {
	s := &Spec{
		Name:  "defaults",
		Topos: []TopoSpec{{Kind: "SF", Q: 5}},
		Algos: []string{"min"},
		Loads: []float64{0.5},
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(jobs))
	}
	if jobs[0].Pattern != "uniform" || jobs[0].Seed != 1 {
		t.Errorf("defaults not applied: %+v", jobs[0])
	}
	// The knobs every job shares are checked once, by Validate, before expansion.
	for _, p := range []SimParams{{Speedup: -1}, {Metrics: "nope"}} {
		s.Sim = p
		if _, err := s.Expand(); err == nil {
			t.Errorf("sim %+v: Expand accepted it", p)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no topos", func(s *Spec) { s.Topos = nil }},
		{"no algos", func(s *Spec) { s.Algos = nil }},
		{"no loads", func(s *Spec) { s.Loads = nil }},
		{"bad algo", func(s *Spec) { s.Algos = []string{"ecmp"} }},
		{"bad pattern", func(s *Spec) { s.Patterns = []string{"tornado"} }},
		{"bad load", func(s *Spec) { s.Loads = []float64{1.5} }},
		{"NaN load at index 1", func(s *Spec) { s.Loads = []float64{0.5, math.NaN()} }},
		{"empty kind", func(s *Spec) { s.Topos = []TopoSpec{{N: 100}} }},
		{"no size", func(s *Spec) { s.Topos = []TopoSpec{{Kind: "SF"}} }},
		{"p without q", func(s *Spec) { s.Topos = []TopoSpec{{Kind: "SF", N: 100, P: 5}} }},
		{"q on non-SF", func(s *Spec) { s.Topos = []TopoSpec{{Kind: "DF", Q: 5}} }},
		{"negative q", func(s *Spec) { s.Topos = []TopoSpec{{Kind: "DF", Q: -1}} }},
		{"negative n", func(s *Spec) { s.Topos = []TopoSpec{{Kind: "SF", N: -100}} }},
		{"bad sim block", func(s *Spec) { s.Sim = SimParams{NumVCs: 8, BufPerPort: 4} }},
	}
	for _, c := range cases {
		s := testSpec()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", c.name)
		}
	}
}

func TestParseSpecsSingle(t *testing.T) {
	in := `{
		"name": "demo",
		"topologies": [{"kind": "SF", "q": 5}],
		"algos": ["min", "ugal-l"],
		"patterns": ["uniform"],
		"loads": [0.1, 0.5],
		"seeds": [1],
		"sim": {"warmup": 100, "measure": 200, "drain": 1000}
	}`
	specs, err := ParseSpecs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "demo" {
		t.Fatalf("parsed %+v", specs)
	}
	jobs, err := ExpandAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(jobs))
	}
}

func TestParseSpecsArray(t *testing.T) {
	in := `[
		{"name": "a", "topologies": [{"kind": "SF", "q": 5}], "algos": ["min"], "loads": [0.1]},
		{"name": "b", "topologies": [{"kind": "FT-3", "n": 64}], "algos": ["anca"], "loads": [0.1, 0.2]}
	]`
	specs, err := ParseSpecs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %d, want 2", len(specs))
	}
	jobs, err := ExpandAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(jobs))
	}
}

func TestParseSpecsRejectsUnknownFields(t *testing.T) {
	in := `{"name": "x", "topologies": [{"kind": "SF", "q": 5}], "algos": ["min"], "loads": [0.1], "laods": [0.2]}`
	if _, err := ParseSpecs(strings.NewReader(in)); err == nil {
		t.Fatal("typo field accepted")
	}
	if _, err := ParseSpecs(strings.NewReader(`42`)); err == nil {
		t.Fatal("non-object spec accepted")
	}
	if _, err := ParseSpecs(strings.NewReader(``)); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := ParseSpecs(strings.NewReader(`[null]`)); err == nil {
		t.Fatal("null spec element accepted")
	}
	valid := `{"name": "a", "topologies": [{"kind": "SF", "q": 5}], "algos": ["min"], "loads": [0.1]}`
	if _, err := ParseSpecs(strings.NewReader(`[` + valid + `, null]`)); err == nil {
		t.Fatal("null trailing element accepted")
	}
	// Anything but whitespace after the one top-level value is refused:
	// it used to be dropped, and only the first spec swept.
	for _, in := range []string{valid + valid, valid + ` garbage`, `[` + valid + `] [` + valid + `]`, `[` + valid + `] }`} {
		_, err := ParseSpecs(strings.NewReader(in))
		if err == nil || !strings.HasPrefix(err.Error(), "sweep: parsing spec: ") {
			t.Errorf("%s: ParseSpecs = %v, want a parsing error for the trailing data", in, err)
		}
	}
	for _, in := range []string{valid + "\n", "[" + valid + "]\r\n\t \n"} {
		if specs, err := ParseSpecs(strings.NewReader(in)); err != nil || len(specs) != 1 {
			t.Errorf("%q: ParseSpecs = %d specs, %v; want 1 spec", in, len(specs), err)
		}
	}
}
