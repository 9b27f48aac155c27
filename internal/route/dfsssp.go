package route

// VCLayering reproduces the deadlock-freedom experiment of Section IV-D:
// how many virtual channels (layers) a DFSSSP-style scheme needs so that
// every layer's channel dependency graph is acyclic.
//
// Like DFSSSP, routes are destination-based shortest paths. Whole
// destination in-trees are assigned to layers greedily: a destination's
// dependency edges are added to the lowest layer that stays acyclic, and a
// new layer is opened when none fits. The paper reports 3 VCs for all Slim
// Fly networks and 8-15 for DLN networks of 338-1682 endpoints; this
// greedy layering reproduces those bands (sfexp -exp vc prints the table).
type VCLayering struct {
	Layers int   // number of virtual channels needed
	ByDest []int // layer assigned to each destination's route tree
}

// ComputeVCLayering runs the destination-granularity greedy layering on the
// minimal routes in t.
//
// Channel u -> v is numbered off[u] + port: v's index in u's adjacency
// list after the degrees of the routers before u. Toward d, every
// router u != d whose next hop m is not d adds one dependency, u's channel
// toward d -> m's channel toward d, so d's in-tree gives each channel at
// most one out-edge: tree[c], -1 for none. A layer is acyclic by
// construction, so the layer plus a tree has a cycle iff one runs through
// a tree edge, and a depth-first search from the tree edges' tails finds
// it; nodes are marked grey and black with a per-search epoch, so nothing
// is cleared between searches.
func ComputeVCLayering(t *Tables) VCLayering {
	g, n := t.G, t.n
	off := make([]int32, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + int32(g.Degree(u))
	}
	channels := int(off[n])
	tree := make([]int32, channels)
	for c := range tree {
		tree[c] = -1
	}
	mark := make([]uint32, channels)
	type frame struct{ c, i int32 } // a channel and its next out-edge to try
	var (
		layers [][][]int32 // layers[l][c]: c's out-edges in layer l
		tails  []int32
		stack  []frame
		epoch  uint32
	)
	// acyclicWith searches layer adj plus the tree from every tail and
	// reports whether it never meets a grey (on-stack) channel.
	acyclicWith := func(adj [][]int32) bool {
		epoch += 2
		grey := epoch
		for _, root := range tails {
			if mark[root] >= grey {
				continue
			}
			mark[root] = grey
			stack = append(stack[:0], frame{root, 0})
			for len(stack) > 0 {
				top := &stack[len(stack)-1]
				out, v := adj[top.c], int32(-1)
				if int(top.i) < len(out) {
					v = out[top.i]
				} else if int(top.i) == len(out) {
					v = tree[top.c]
				}
				if v < 0 {
					mark[top.c] = grey + 1
					stack = stack[:len(stack)-1]
					continue
				}
				top.i++
				if mark[v] == grey {
					return false
				}
				if mark[v] < grey {
					mark[v] = grey
					stack = append(stack, frame{v, 0})
				}
			}
		}
		return true
	}
	byDest := make([]int, n)
	for d := 0; d < n; d++ {
		tails = tails[:0]
		for u := 0; u < n; u++ {
			if m := t.next[u*n+d]; m >= 0 && int(m) != d {
				c := off[u] + t.nextPort[u*n+d]
				tree[c] = off[m] + t.nextPort[int(m)*n+d]
				tails = append(tails, c)
			}
		}
		l := 0
		for l < len(layers) && !acyclicWith(layers[l]) {
			l++
		}
		if l == len(layers) {
			layers = append(layers, make([][]int32, channels))
		}
		for _, c := range tails {
			layers[l][c] = append(layers[l][c], tree[c])
			tree[c] = -1
		}
		byDest[d] = l
	}
	return VCLayering{Layers: len(layers), ByDest: byDest}
}
