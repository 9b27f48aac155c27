package export

import (
	"bytes"
	"encoding/json"
	"testing"

	"slimfly/internal/musttest"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/slimfly"
)

func TestDescribeSlimFly(t *testing.T) {
	sf := slimfly.MustNew(5)
	d := Describe(sf)
	if d.Name != "SF" || d.Routers != 50 || d.Endpoints != 200 || d.Diameter != 2 {
		t.Fatalf("description: %+v", d)
	}
	if len(d.Edges) != 175 {
		t.Errorf("edges = %d, want 175", len(d.Edges))
	}
	if d.EndpointRouter != nil {
		t.Error("uniform SF should omit endpoint map")
	}
}

func TestDescribeFatTreeMapping(t *testing.T) {
	// Fat-tree endpoints live only on edge switches, but those are the
	// first p^2 router ids, so the uniform rule e/p still applies and the
	// explicit map is omitted.
	ft := musttest.Must(fattree.New(3))
	d := Describe(ft)
	if d.EndpointRouter != nil {
		t.Error("fat tree mapping is uniform over edge switches; map should be omitted")
	}
}

// reversed wraps a topology with a non-uniform endpoint mapping.
type reversed struct{ *slimfly.SlimFly }

func (r reversed) EndpointRouter(e int) int {
	return r.Routers() - 1 - r.SlimFly.EndpointRouter(e)
}

func TestDescribeCustomMapping(t *testing.T) {
	d := Describe(reversed{slimfly.MustNew(3)})
	if d.EndpointRouter == nil {
		t.Fatal("non-uniform mapping should be recorded")
	}
	if len(d.EndpointRouter) != d.Endpoints {
		t.Errorf("endpoint map length %d, want %d", len(d.EndpointRouter), d.Endpoints)
	}
	if d.EndpointRouter[0] != d.Routers-1 {
		t.Errorf("endpoint 0 on router %d, want %d", d.EndpointRouter[0], d.Routers-1)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sf := slimfly.MustNew(5)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sf); err != nil {
		t.Fatal(err)
	}
	var d Description
	if err := json.NewDecoder(&buf).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Routers != 50 || len(d.Edges) != 175 || d.Radix != 11 {
		t.Errorf("round trip: %+v", d)
	}
}
