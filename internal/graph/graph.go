// Package graph builds the study's actual deliverable: the topology
// graph. Probe logs and interface counts are intermediate artifacts —
// the paper's comparisons (discovery power per strategy, marginal gain
// per vantage, periphery structure) are statements about the
// interface-level directed multigraph a campaign induces.
//
// The prober keeps no per-target state, so a campaign's graph is
// rebuilt from its replies afterwards: FromStore folds every trace of
// the merged result store into per-(vantage, protocol, target) path
// skeletons and derives the edge multiset from them. Hops may be
// inserted in any TTL order, so edge maintenance is incremental
// interval splitting: a hop landing between two already-known hops
// replaces their spanning edge with the two sub-edges. The same
// insertion serves Graph as a streaming probe.Observer (OnReply), which
// the supervisor uses to stream a campaign's live node/edge growth.
//
// Determinism is the package's core invariant. The node set and edge
// multiset are pure functions of the final path skeletons — never of
// hop insertion order — and Merge unions skeletons (with a commutative
// tie-break) before re-deriving edges. Cross-vantage union is Merge:
// paths are keyed by vantage, so differing views of one target never
// mix.
package graph

import (
	"net/netip"
	"sort"

	"beholder/internal/probe"
)

// NodeFlags classifies how an address entered the graph.
type NodeFlags uint8

// Node classification bits.
const (
	// NodeInterface marks a router interface address (a Time Exceeded
	// source).
	NodeInterface NodeFlags = 1 << iota
	// NodeDest marks a probe destination that itself responded (echo
	// reply, RST, or port unreachable) — the graph's periphery.
	NodeDest
)

// DestGap is the Gap value of destination edges (last responsive hop →
// reached target): the remaining hop distance is unknown, so the gap
// carries no TTL arithmetic.
const DestGap = 0

// Edge is one annotated directed multigraph edge. Src and Dst are
// interface addresses (Dst is a destination address for Gap == DestGap
// edges); Gap is the TTL distance between the two hops (1 = directly
// consecutive responses, >1 spans unresponsive hops); Proto is the
// probing transport; V indexes the graph's vantage table.
type Edge struct {
	Src, Dst netip.Addr
	Gap      uint8
	Proto    uint8
	V        uint8
}

// pathKey identifies one path skeleton: what one vantage learned about
// one target under one transport. Keying by vantage and protocol keeps
// differing views of the same target apart, which is what makes Merge
// serve both shard folding (same key space, disjoint TTLs) and
// cross-vantage union (disjoint key spaces).
type pathKey struct {
	v      uint8
	proto  uint8
	target netip.Addr
}

// hop is one responsive hop of a path skeleton.
type hop struct {
	ttl  uint8
	addr netip.Addr
}

// path is the per-(vantage, proto, target) skeleton edges derive from.
type path struct {
	key     pathKey
	hops    []hop // sorted by TTL, unique TTLs
	reached bool
}

// Graph is a deterministic interface-level directed multigraph under
// incremental construction, built by FromStore or fed live as a
// probe.Observer (owned by a single prober goroutine while its campaign
// runs); graphs of different vantages fold together with Merge.
type Graph struct {
	vantages []string
	self     uint8 // vantage index OnReply attributes replies to

	nodes map[netip.Addr]NodeFlags
	paths map[pathKey]*path
	edges map[Edge]int64

	// traversals counts edge insertions net of removals: the sum of all
	// multi-edge counts, i.e. path-hops contributing topology.
	traversals int64

	// lastKey/lastPath memoize the most recent path touched: replies
	// cluster by target (fill follow-ups, sequential probing), so the
	// memo removes the map lookup for the common repeat case.
	lastKey  pathKey
	lastPath *path

	// block slab-allocates path structs in fixed pieces and hopSlab
	// pre-backs their hop lists, keeping the observer's steady-state
	// allocation rate near zero on the packet fast path.
	block   []path
	hopSlab []hop
}

// New creates an empty graph whose OnReply attributes replies to the
// named vantage.
func New(vantage string) *Graph {
	g := newEmpty()
	g.self = g.vantageIndex(vantage)
	return g
}

func newEmpty() *Graph {
	return &Graph{
		nodes: make(map[netip.Addr]NodeFlags),
		paths: make(map[pathKey]*path),
		edges: make(map[Edge]int64),
	}
}

// Union folds any number of graphs into a fresh one (the inputs are not
// modified). Merge is commutative and associative, so the result is
// independent of argument order up to vantage-table layout, which
// canonical export normalizes away.
func Union(gs ...*Graph) *Graph {
	out := newEmpty()
	for _, g := range gs {
		out.Merge(g)
	}
	return out
}

// vantageIndex interns a vantage name.
func (g *Graph) vantageIndex(name string) uint8 {
	for i, v := range g.vantages {
		if v == name {
			return uint8(i)
		}
	}
	if len(g.vantages) >= 256 {
		panic("graph: more than 256 vantages in one graph")
	}
	g.vantages = append(g.vantages, name)
	return uint8(len(g.vantages) - 1)
}

// Vantages returns the graph's vantage names, sorted.
func (g *Graph) Vantages() []string {
	out := append([]string(nil), g.vantages...)
	sort.Strings(out)
	return out
}

// OnReply folds one parsed probe reply into the graph; it is the
// streaming observer hook probers call after storing the reply. The
// rules mirror probe.Store.Add exactly — first answer per (target, TTL)
// wins, TE sources become interface nodes even when the quotation was
// too mangled to place them on a path — so the graph's node set always
// equals the store's interface set plus the reached destinations.
func (g *Graph) OnReply(r probe.Reply) {
	switch r.Kind {
	case probe.KindTimeExceeded:
		g.nodes[r.From] |= NodeInterface
		if r.Target.IsValid() && r.TTL != 0 {
			g.insertHop(pathKey{g.self, r.Proto, r.Target}, r.TTL, r.From, false)
		}
	case probe.KindEchoReply, probe.KindTCPRst:
		g.reach(pathKey{g.self, r.Proto, r.Target})
	case probe.KindDestUnreach:
		if r.Code == 4 && r.Target.IsValid() { // port unreachable: from the destination
			g.reach(pathKey{g.self, r.Proto, r.Target})
		}
	}
}

// getPath returns (creating if needed) the skeleton for k.
func (g *Graph) getPath(k pathKey) *path {
	if g.lastPath != nil && g.lastKey == k {
		return g.lastPath
	}
	p := g.paths[k]
	if p == nil {
		if len(g.block) == 0 {
			g.block = make([]path, 64)
		}
		p = &g.block[0]
		g.block = g.block[1:]
		p.key = k
		if len(g.hopSlab) < 16 {
			g.hopSlab = make([]hop, 16*128)
		}
		p.hops = g.hopSlab[:0:16]
		g.hopSlab = g.hopSlab[16:]
		g.paths[k] = p
	}
	g.lastKey, g.lastPath = k, p
	return p
}

// insertHop places (ttl, addr) on k's skeleton and restores the edge
// invariant around it. tiebreak selects the TTL-collision policy:
// false keeps the hop already present (Store.Add's first-answer rule —
// the streaming path, where "first" is well defined), true keeps the
// lexicographically smaller address (Merge's commutative rule, which
// makes merging order-independent even for overlapping ad-hoc merges —
// campaign shards never collide: their (target × TTL) slices are
// disjoint).
func (g *Graph) insertHop(k pathKey, ttl uint8, addr netip.Addr, tiebreak bool) {
	p := g.getPath(k)
	// Binary search for the insertion point; paths are short (≤ the TTL
	// range), so this is a handful of comparisons.
	lo, hi := 0, len(p.hops)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.hops[mid].ttl < ttl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.hops) && p.hops[lo].ttl == ttl {
		old := p.hops[lo].addr
		if !tiebreak || old == addr || old.Compare(addr) <= 0 {
			return
		}
		g.replaceHop(p, lo, addr)
		return
	}
	g.nodes[addr] |= NodeInterface
	p.hops = append(p.hops, hop{})
	copy(p.hops[lo+1:], p.hops[lo:])
	p.hops[lo] = hop{ttl: ttl, addr: addr}

	var pred, succ *hop
	if lo > 0 {
		pred = &p.hops[lo-1]
	}
	if lo+1 < len(p.hops) {
		succ = &p.hops[lo+1]
	}
	switch {
	case pred != nil && succ != nil:
		// Interval split: the spanning edge becomes two sub-edges.
		g.edgeDelta(pred.addr, succ.addr, succ.ttl-pred.ttl, k, -1)
		g.edgeDelta(pred.addr, addr, ttl-pred.ttl, k, +1)
		g.edgeDelta(addr, succ.addr, succ.ttl-ttl, k, +1)
	case pred != nil:
		// New last hop: extend the path, and re-anchor the destination
		// edge if the target already answered.
		g.edgeDelta(pred.addr, addr, ttl-pred.ttl, k, +1)
		if p.reached {
			g.edgeDelta(pred.addr, k.target, DestGap, k, -1)
			g.edgeDelta(addr, k.target, DestGap, k, +1)
		}
	case succ != nil:
		g.edgeDelta(addr, succ.addr, succ.ttl-ttl, k, +1)
	default:
		// First hop of the path; the destination edge, if any, anchors
		// here.
		if p.reached {
			g.edgeDelta(addr, k.target, DestGap, k, +1)
		}
	}
}

// replaceHop swaps the address at position i for a tie-break winner and
// repairs the adjacent edges.
func (g *Graph) replaceHop(p *path, i int, addr netip.Addr) {
	k := p.key
	old := p.hops[i]
	g.nodes[addr] |= NodeInterface
	if i > 0 {
		pred := p.hops[i-1]
		g.edgeDelta(pred.addr, old.addr, old.ttl-pred.ttl, k, -1)
		g.edgeDelta(pred.addr, addr, old.ttl-pred.ttl, k, +1)
	}
	if i+1 < len(p.hops) {
		succ := p.hops[i+1]
		g.edgeDelta(old.addr, succ.addr, succ.ttl-old.ttl, k, -1)
		g.edgeDelta(addr, succ.addr, succ.ttl-old.ttl, k, +1)
	} else if p.reached {
		g.edgeDelta(old.addr, k.target, DestGap, k, -1)
		g.edgeDelta(addr, k.target, DestGap, k, +1)
	}
	p.hops[i].addr = addr
	// The displaced address may still be an interface via other paths;
	// its node entry stays — interface discovery is monotone.
}

// reach records that k's target responded itself, adding the periphery
// node and, once a last hop exists, the destination edge.
func (g *Graph) reach(k pathKey) {
	p := g.getPath(k)
	if p.reached {
		return
	}
	p.reached = true
	g.nodes[k.target] |= NodeDest
	if n := len(p.hops); n > 0 {
		g.edgeDelta(p.hops[n-1].addr, k.target, DestGap, k, +1)
	}
}

// edgeDelta adjusts one multi-edge count, dropping zeroed entries so
// the edge map always holds exactly the live multiset.
func (g *Graph) edgeDelta(src, dst netip.Addr, gap uint8, k pathKey, d int64) {
	e := Edge{Src: src, Dst: dst, Gap: gap, Proto: k.proto, V: k.v}
	n := g.edges[e] + d
	if n <= 0 {
		delete(g.edges, e)
	} else {
		g.edges[e] = n
	}
	g.traversals += d
}

// Merge folds o into g (o is not modified). Same-vantage path skeletons
// union hop sets (commutative tie-break on TTL collisions, which
// disjoint campaign shards never produce) and OR reached flags; edges
// re-derive through the same incremental maintenance, so the merged
// edge multiset is the pure function of the merged skeletons —
// identical however subgraphs are grouped or ordered.
func (g *Graph) Merge(o *Graph) {
	if o == nil || g == o {
		return
	}
	var vmap [256]uint8
	for i, name := range o.vantages {
		vmap[i] = g.vantageIndex(name)
	}
	for a, fl := range o.nodes {
		g.nodes[a] |= fl
	}
	for k, p := range o.paths {
		nk := pathKey{v: vmap[k.v], proto: k.proto, target: k.target}
		for _, h := range p.hops {
			g.insertHop(nk, h.ttl, h.addr, true)
		}
		if p.reached {
			g.reach(nk)
		}
	}
}

// FromStore builds the graph of the store's traces — the same graph a
// streaming observer fed the store's replies would hold. Each trace's
// TTLs are unique and insertHop takes them in any order, so hops are
// inserted as stored, without sorting. proto annotates the edges, since
// the store does not retain the probing transport; extra interface
// addresses without path placement (mangled quotations) are imported as
// bare nodes.
func FromStore(st *probe.Store, vantage string, proto uint8) *Graph {
	g := New(vantage)
	st.ForEachInterface(func(a netip.Addr) {
		g.nodes[a] |= NodeInterface
	})
	for _, tr := range st.Traces() {
		k := pathKey{g.self, proto, tr.Target}
		for _, h := range tr.Hops {
			g.insertHop(k, h.TTL, h.Addr, false)
		}
		if tr.Reached {
			g.reach(k)
		}
	}
	return g
}

// NumNodes returns the node count (interfaces plus reached
// destinations).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the count of distinct annotated edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumPaths returns the count of path skeletons (per vantage, protocol,
// and target).
func (g *Graph) NumPaths() int { return len(g.paths) }

// Traversals returns the sum of multi-edge counts: how many path-links
// the edge multiset folds together.
func (g *Graph) Traversals() int64 { return g.traversals }

// NodeFlagsOf returns a node's classification, or 0 if absent.
func (g *Graph) NodeFlagsOf(a netip.Addr) NodeFlags { return g.nodes[a] }

// ForEachNode calls fn for every node, in unspecified order.
func (g *Graph) ForEachNode(fn func(addr netip.Addr, flags NodeFlags)) {
	for a, fl := range g.nodes {
		fn(a, fl)
	}
}

// ForEachEdge calls fn for every annotated edge with its multiplicity,
// in unspecified order.
func (g *Graph) ForEachEdge(fn func(e Edge, n int64)) {
	for e, n := range g.edges {
		fn(e, n)
	}
}

// VantageName resolves an edge's vantage index.
func (g *Graph) VantageName(v uint8) string {
	if int(v) < len(g.vantages) {
		return g.vantages[v]
	}
	return ""
}

// Equal reports whether two graphs hold the identical topology: same
// node classifications and the same annotated edge multiset (vantage
// indices resolved by name). Determinism tests use it; canonical export
// equality is implied.
func (g *Graph) Equal(o *Graph) bool {
	if len(g.nodes) != len(o.nodes) || len(g.edges) != len(o.edges) {
		return false
	}
	for a, fl := range g.nodes {
		if o.nodes[a] != fl {
			return false
		}
	}
	remap := make([]int, len(g.vantages))
	for i, name := range g.vantages {
		remap[i] = -1
		for j, oname := range o.vantages {
			if oname == name {
				remap[i] = j
			}
		}
	}
	for e, n := range g.edges {
		ov := remap[e.V]
		if ov < 0 {
			return false
		}
		oe := e
		oe.V = uint8(ov)
		if o.edges[oe] != n {
			return false
		}
	}
	return true
}
