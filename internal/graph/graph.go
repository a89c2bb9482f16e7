// Package graph provides the typed undirected graph and connected-component
// machinery used by the campaign aggregation stage.
//
// Nodes are (kind, value) pairs — samples, wallets, hosting URLs, domain
// aliases, proxies and known operations — and edges carry the grouping
// feature that created them (§III-E of the paper). Each connected component of
// the graph is one campaign.
package graph

import (
	"fmt"
	"sort"

	"cryptomining/internal/model"
)

// NodeID identifies a node as the pair (kind, value).
type NodeID struct {
	Kind  model.NodeKind
	Value string
}

// String renders the node as "kind:value".
func (n NodeID) String() string { return string(n.Kind) + ":" + n.Value }

// Edge is an undirected edge labeled with the grouping feature that created it.
type Edge struct {
	A, B NodeID
	Kind model.EdgeKind
}

// Graph is an undirected multigraph with typed nodes and labeled edges.
type Graph struct {
	nodes map[NodeID]struct{}
	edges []Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: make(map[NodeID]struct{})}
}

// AddNode inserts a node; adding an existing node is a no-op.
func (g *Graph) AddNode(id NodeID) {
	g.nodes[id] = struct{}{}
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.nodes[id]
	return ok
}

// AddEdge inserts an undirected edge between a and b (adding the nodes if
// necessary) labeled with the given grouping feature. Self-loops are ignored.
func (g *Graph) AddEdge(a, b NodeID, kind model.EdgeKind) {
	if a == b {
		g.AddNode(a)
		return
	}
	g.AddNode(a)
	g.AddNode(b)
	e := Edge{A: a, B: b, Kind: kind}
	g.edges = append(g.edges, e)
}

// NodeCount returns the number of nodes. Only tests read it.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of edges. Only tests read it.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge {
	return append([]Edge(nil), g.edges...)
}

// Nodes returns all nodes sorted by kind then value (deterministic order).
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Component is one connected component: its nodes grouped by kind and the
// edges internal to it.
type Component struct {
	// Nodes lists every node in the component, deterministic order.
	Nodes []NodeID
	// Edges lists the edges internal to the component.
	Edges []Edge
	// ByKind indexes node values by node kind.
	ByKind map[model.NodeKind][]string
	// EdgeKinds counts edges by grouping feature.
	EdgeKinds map[model.EdgeKind]int
}

// Values returns the node values of the given kind, sorted.
func (c *Component) Values(kind model.NodeKind) []string {
	vals := append([]string(nil), c.ByKind[kind]...)
	sort.Strings(vals)
	return vals
}

// ConnectedComponents returns every connected component of the graph. Isolated
// nodes form singleton components. Components are returned in a deterministic
// order (by their smallest node). Only the batch Aggregate test oracle uses it.
func (g *Graph) ConnectedComponents() []*Component {
	uf := NewDisjointSet[NodeID]()
	for n := range g.nodes {
		uf.Find(n)
	}
	for _, e := range g.edges {
		uf.Union(e.A, e.B)
	}

	groups := map[NodeID][]NodeID{}
	for n := range g.nodes {
		root := uf.Find(n)
		groups[root] = append(groups[root], n)
	}

	comps := make([]*Component, 0, len(groups))
	for _, nodes := range groups {
		sort.Slice(nodes, func(i, j int) bool {
			if nodes[i].Kind != nodes[j].Kind {
				return nodes[i].Kind < nodes[j].Kind
			}
			return nodes[i].Value < nodes[j].Value
		})
		c := &Component{
			Nodes:     nodes,
			ByKind:    map[model.NodeKind][]string{},
			EdgeKinds: map[model.EdgeKind]int{},
		}
		for _, n := range nodes {
			c.ByKind[n.Kind] = append(c.ByKind[n.Kind], n.Value)
		}
		comps = append(comps, c)
	}

	// Assign edges to their component via the root of either endpoint.
	rootToComp := map[NodeID]*Component{}
	for _, c := range comps {
		rootToComp[uf.Find(c.Nodes[0])] = c
	}
	for _, e := range g.edges {
		c := rootToComp[uf.Find(e.A)]
		c.Edges = append(c.Edges, e)
		c.EdgeKinds[e.Kind]++
	}

	sort.Slice(comps, func(i, j int) bool {
		a, b := comps[i].Nodes[0], comps[j].Nodes[0]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Value < b.Value
	})
	return comps
}

// String renders an edge for debugging.
func (e Edge) String() string {
	return fmt.Sprintf("%s --[%s]-- %s", e.A, e.Kind, e.B)
}
