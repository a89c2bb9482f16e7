package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cryptomining/internal/model"
)

func sample(v string) NodeID  { return NodeID{Kind: model.NodeSample, Value: v} }
func walletN(v string) NodeID { return NodeID{Kind: model.NodeWallet, Value: v} }

func TestAddNodeAndEdge(t *testing.T) {
	g := New()
	g.AddNode(sample("s1"))
	if !g.HasNode(sample("s1")) {
		t.Error("node s1 should exist")
	}
	if g.HasNode(sample("s2")) {
		t.Error("node s2 should not exist")
	}
	g.AddEdge(sample("s1"), walletN("w1"), model.EdgeSameIdentifier)
	if g.NodeCount() != 2 {
		t.Errorf("NodeCount = %d, want 2", g.NodeCount())
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	if es := g.Edges(); len(es) != 1 || es[0].A != sample("s1") || es[0].B != walletN("w1") {
		t.Errorf("Edges = %v, want the one s1-w1 edge", es)
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddNode(sample("s1"))
	g.AddNode(sample("s1"))
	if g.NodeCount() != 1 {
		t.Errorf("NodeCount = %d, want 1", g.NodeCount())
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New()
	g.AddEdge(sample("s1"), sample("s1"), model.EdgeAncestor)
	if g.EdgeCount() != 0 {
		t.Errorf("self-loop should be ignored, EdgeCount = %d", g.EdgeCount())
	}
	if g.NodeCount() != 1 {
		t.Errorf("self-loop should still add the node, NodeCount = %d", g.NodeCount())
	}
}

func TestConnectedComponentsTwoCampaigns(t *testing.T) {
	g := New()
	// Campaign 1: two samples sharing a wallet.
	g.AddEdge(sample("s1"), walletN("w1"), model.EdgeSameIdentifier)
	g.AddEdge(sample("s2"), walletN("w1"), model.EdgeSameIdentifier)
	// Campaign 2: one sample, separate wallet, linked by a CNAME domain.
	g.AddEdge(sample("s3"), walletN("w2"), model.EdgeSameIdentifier)
	g.AddEdge(sample("s3"), NodeID{Kind: model.NodeDomain, Value: "xt.freebuf.info"}, model.EdgeCNAMEAlias)
	// Isolated ancillary node.
	g.AddNode(NodeID{Kind: model.NodeAncillary, Value: "a1"})

	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	var sizes []int
	for _, c := range comps {
		sizes = append(sizes, len(c.Nodes))
	}
	counts := map[int]int{}
	for _, s := range sizes {
		counts[s]++
	}
	if counts[3] != 2 || counts[1] != 1 {
		t.Errorf("component sizes = %v, want two of size 3 and one of size 1", sizes)
	}
}

func TestComponentByKindAndValues(t *testing.T) {
	g := New()
	g.AddEdge(sample("s1"), walletN("wB"), model.EdgeSameIdentifier)
	g.AddEdge(sample("s1"), walletN("wA"), model.EdgeSameIdentifier)
	comps := g.ConnectedComponents()
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	wallets := comps[0].Values(model.NodeWallet)
	if len(wallets) != 2 || wallets[0] != "wA" || wallets[1] != "wB" {
		t.Errorf("wallet values = %v, want sorted [wA wB]", wallets)
	}
	samples := comps[0].Values(model.NodeSample)
	if len(samples) != 1 || samples[0] != "s1" {
		t.Errorf("sample values = %v", samples)
	}
	if comps[0].EdgeKinds[model.EdgeSameIdentifier] != 2 {
		t.Errorf("edge kinds = %v", comps[0].EdgeKinds)
	}
}

func TestTransitiveAggregation(t *testing.T) {
	// s1-w1, s2-w1, s2-w2, s3-w2: all four samples/wallets must end in one
	// component (the wallet-bridging behaviour campaigns exhibit).
	g := New()
	g.AddEdge(sample("s1"), walletN("w1"), model.EdgeSameIdentifier)
	g.AddEdge(sample("s2"), walletN("w1"), model.EdgeSameIdentifier)
	g.AddEdge(sample("s2"), walletN("w2"), model.EdgeSameIdentifier)
	g.AddEdge(sample("s3"), walletN("w2"), model.EdgeSameIdentifier)
	comps := g.ConnectedComponents()
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	if len(comps[0].Values(model.NodeSample)) != 3 {
		t.Errorf("samples in component = %v", comps[0].Values(model.NodeSample))
	}
}

func TestNodesDeterministicOrder(t *testing.T) {
	g := New()
	g.AddNode(walletN("w2"))
	g.AddNode(sample("s9"))
	g.AddNode(walletN("w1"))
	g.AddNode(sample("s1"))
	n1 := g.Nodes()
	n2 := g.Nodes()
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatal("Nodes() order not deterministic")
		}
	}
	for i := 1; i < len(n1); i++ {
		if n1[i-1].Kind > n1[i].Kind || (n1[i-1].Kind == n1[i].Kind && n1[i-1].Value > n1[i].Value) {
			t.Fatal("Nodes() not sorted")
		}
	}
}

func TestComponentsPartitionProperty(t *testing.T) {
	// Property: components partition the node set (every node in exactly one).
	f := func(edgeSeeds []uint16) bool {
		g := New()
		for _, s := range edgeSeeds {
			a := sample(fmt.Sprintf("s%d", s%32))
			b := walletN(fmt.Sprintf("w%d", (s/32)%16))
			g.AddEdge(a, b, model.EdgeSameIdentifier)
		}
		comps := g.ConnectedComponents()
		seen := map[NodeID]int{}
		total := 0
		for _, c := range comps {
			for _, n := range c.Nodes {
				seen[n]++
				total++
			}
		}
		if total != g.NodeCount() {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEdgesWithinComponentProperty(t *testing.T) {
	// Property: the sum of component edge counts equals the graph edge count.
	f := func(edgeSeeds []uint16) bool {
		g := New()
		for _, s := range edgeSeeds {
			a := sample(fmt.Sprintf("s%d", s%64))
			b := sample(fmt.Sprintf("s%d", (s/64)%64))
			g.AddEdge(a, b, model.EdgeAncestor)
		}
		comps := g.ConnectedComponents()
		total := 0
		for _, c := range comps {
			total += len(c.Edges)
		}
		return total == g.EdgeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{A: sample("s1"), B: walletN("w1"), Kind: model.EdgeSameIdentifier}
	want := "sample:s1 --[same-identifier]-- wallet:w1"
	if got := e.String(); got != want {
		t.Errorf("Edge.String() = %q, want %q", got, want)
	}
}

func TestLargeRandomGraphComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := New()
	// Build 100 star-shaped campaigns that must remain disjoint.
	for c := 0; c < 100; c++ {
		w := walletN(fmt.Sprintf("campaign%d-wallet", c))
		for s := 0; s < 20; s++ {
			g.AddEdge(sample(fmt.Sprintf("c%d-s%d", c, s)), w, model.EdgeSameIdentifier)
		}
	}
	_ = rng
	comps := g.ConnectedComponents()
	if len(comps) != 100 {
		t.Errorf("components = %d, want 100", len(comps))
	}
	for _, c := range comps {
		if len(c.Nodes) != 21 {
			t.Errorf("component size = %d, want 21", len(c.Nodes))
		}
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := New()
	for c := 0; c < 1000; c++ {
		w := walletN(fmt.Sprintf("w%d", c))
		for s := 0; s < 10; s++ {
			g.AddEdge(sample(fmt.Sprintf("c%d-s%d", c, s)), w, model.EdgeSameIdentifier)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}
