// Package export serialises topologies for use outside this repository:
// a JSON description mirroring the paper's published "library of
// practical topologies" (Section I contribution list), so generated Slim
// Flies can be fed to external simulators or deployment tooling.
package export

import (
	"encoding/json"
	"io"

	"slimfly/internal/topo"
)

// Description is the JSON form of a constructed topology.
type Description struct {
	Name          string   `json:"name"`
	Endpoints     int      `json:"endpoints"`
	Routers       int      `json:"routers"`
	Concentration int      `json:"concentration"`
	NetworkRadix  int      `json:"network_radix"`
	Radix         int      `json:"radix"`
	Diameter      int      `json:"diameter"`
	Edges         [][2]int `json:"edges"`
	// EndpointRouter maps endpoint -> hosting router (omitted when the
	// uniform rule endpoint/concentration applies).
	EndpointRouter []int `json:"endpoint_router,omitempty"`
}

// Describe builds the JSON description of t.
func Describe(t topo.Topology) Description {
	d := Description{
		Name:          t.Name(),
		Endpoints:     t.Endpoints(),
		Routers:       t.Routers(),
		Concentration: t.Concentration(),
		NetworkRadix:  t.NetworkRadix(),
		Radix:         t.Radix(),
		Diameter:      t.DesignDiameter(),
	}
	for _, e := range t.Graph().Edges() {
		d.Edges = append(d.Edges, [2]int{int(e.U), int(e.V)})
	}
	uniform := true
	for e := 0; e < t.Endpoints(); e++ {
		if t.EndpointRouter(e) != e/t.Concentration() {
			uniform = false
			break
		}
	}
	if !uniform {
		d.EndpointRouter = make([]int, t.Endpoints())
		for e := 0; e < t.Endpoints(); e++ {
			d.EndpointRouter[e] = t.EndpointRouter(e)
		}
	}
	return d
}

// WriteJSON writes the topology description as indented JSON.
func WriteJSON(w io.Writer, t topo.Topology) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(Describe(t))
}
