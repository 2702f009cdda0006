// Package tpstry implements the Traversal Pattern Summary Trie (TPSTry++)
// of Loom §2: a trie-like DAG in which every node represents a connected
// sub-graph of some query graph in the workload Q, every parent represents
// a sub-graph common to its children, and every node carries a support
// value — the relative frequency with which its graph occurs across Q.
//
// Nodes are deduplicated by their number-theoretic signature (a factor
// multiset, package signature), so the structure is a DAG: a graph like
// a-b-a-b is reachable by adding an edge to either b-a-b or a-b-a (Fig. 2).
// Edges between nodes are labelled with the 3-factor delta contributed by
// the added edge, which is exactly the information the stream matcher
// needs: "check if n has a child c where the difference between n's factor
// set and c's factor set corresponds to factors for the addition of e" (§3).
//
// Given a support threshold T, a node whose support is at least T is a
// motif. Support is anti-monotone along trie edges (a sub-graph occurs at
// least as often as its super-graphs), so motifs are downward closed: the
// ancestors of a motif are motifs. The matcher exploits this to discard
// non-motif edges immediately (§3). Strictly, a node is a signature class:
// when non-isomorphic sub-graphs share a signature, a query containing one
// of them credits the shared node, and a child can out-support a parent.
package tpstry

import (
	"fmt"
	"slices"
	"sort"

	"loom/internal/graph"
	"loom/internal/signature"
)

// MaxQueryEdges bounds the size of a single query graph. Construction
// enumerates connected edge subsets with a 64-bit mask; the paper notes
// query graphs are "of the order of 10 edges", so 63 is generous.
const MaxQueryEdges = 63

// Node is one TPSTry++ node: a distinct (up to signature) connected
// sub-graph of the workload's query graphs.
type Node struct {
	// ID is a dense identifier assigned in creation order, stable for a
	// given construction sequence; useful for logging and tests.
	ID int
	// Sig is the node's signature: the factor multiset of its graph.
	Sig *signature.Multiset
	// Rep is a representative graph for the node (the first concrete
	// sub-graph that produced it). Two sub-graphs mapping to the same
	// node are isomorphic up to signature collision.
	Rep *graph.Graph
	// Edges is the number of edges in the node's graph (trie depth).
	Edges int

	support float64
	// Child edges. In the packed regime (the scheme's modulus fits a
	// PackedDelta field; every published prime does) children live in a
	// compact sorted table keyed by the packed delta — ckeys is ascending
	// and cnodes is parallel to it — so the innermost Alg. 2 lookup is a
	// branch-free binary search over a handful of machine words instead of
	// a Go-map hash of a 12-byte struct. When the modulus is too large to
	// pack (p > signature.MaxPackedFactor), cmap is used instead and the
	// slices stay nil.
	ckeys   []signature.PackedDelta
	cnodes  []*Node
	cmap    map[signature.Delta]*Node
	parents []*Node
}

// Support returns the node's accumulated support weight (normalised by the
// owning trie's total workload weight via Trie.SupportOf).
func (n *Node) rawSupport() float64 { return n.support }

// ChildByDelta returns the child reached by adding an edge whose factor
// delta is d, if any. This is the core matching step of Alg. 2.
func (n *Node) ChildByDelta(d signature.Delta) (*Node, bool) {
	if n.cmap != nil {
		c, ok := n.cmap[d]
		return c, ok
	}
	return n.ChildByPacked(d.Packed())
}

// ChildByPacked is ChildByDelta over a pre-packed delta — the stream
// matcher's hot-path form. Valid only for tries whose scheme is packable
// (signature.Scheme.Packable); the matcher checks once at construction.
func (n *Node) ChildByPacked(pk signature.PackedDelta) (*Node, bool) {
	if i, ok := slices.BinarySearch(n.ckeys, pk); ok {
		return n.cnodes[i], true
	}
	return nil, false
}

// NumChildren returns the number of child edges. Match growth prunes on it:
// a leaf node can never grow, whatever the delta.
func (n *Node) NumChildren() int {
	if n.cmap != nil {
		return len(n.cmap)
	}
	return len(n.ckeys)
}

// Children returns the node's children sorted by ID (deterministic).
func (n *Node) Children() []*Node {
	out := make([]*Node, 0, n.NumChildren())
	if n.cmap != nil {
		for _, c := range n.cmap {
			out = append(out, c)
		}
	} else {
		out = append(out, n.cnodes...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ChildDeltas returns the node's child edge labels (the 3-factor deltas),
// unsorted; export rendering sorts them. Cold path.
func (n *Node) ChildDeltas() []signature.Delta {
	out := make([]signature.Delta, 0, n.NumChildren())
	if n.cmap != nil {
		for d := range n.cmap {
			out = append(out, d)
		}
	} else {
		for _, pk := range n.ckeys {
			out = append(out, pk.Unpack())
		}
	}
	return out
}

// Parents returns the node's parents (multiple in the DAG case).
func (n *Node) Parents() []*Node { return n.parents }

func (n *Node) String() string {
	return fmt.Sprintf("node#%d{edges=%d sig=%v}", n.ID, n.Edges, n.Sig)
}

// Trie is the TPSTry++ for a workload Q. The zero value is not usable;
// construct with New.
type Trie struct {
	scheme *signature.Scheme
	packed bool // scheme.Packable(): child tables keyed by PackedDelta
	root   *Node
	nodes  map[string]*Node // signature key → node
	nextID int
	total  float64 // Σ of query frequencies added (support normaliser)
	// queries records (graph, frequency) pairs for introspection and
	// re-thresholding.
	queries []WorkloadEntry
	// version counts workload mutations; consumers that memoise motif
	// decisions (the window's single-edge gate cache) invalidate on it.
	version int
}

// WorkloadEntry is one (query graph, relative frequency) pair of Q.
type WorkloadEntry struct {
	Query *graph.Graph
	Freq  float64
}

// New returns an empty TPSTry++ using the given signature scheme. The
// scheme must be the same one used by the stream matcher, so that factor
// deltas computed on the stream side agree with trie edge labels.
func New(scheme *signature.Scheme) *Trie {
	t := &Trie{
		scheme: scheme,
		packed: scheme.Packable(),
		nextID: 1,
	}
	root := t.newNode(0, signature.NewMultiset(), graph.New(), 0)
	t.root = root
	t.nodes = map[string]*Node{root.Sig.Key(): root}
	return t
}

// newNode builds a node with an empty child table in the trie's regime
// (packed slice table, or Delta-keyed map when the modulus is unpackable).
func (t *Trie) newNode(id int, sig *signature.Multiset, rep *graph.Graph, edges int) *Node {
	n := &Node{ID: id, Sig: sig, Rep: rep, Edges: edges}
	if !t.packed {
		n.cmap = make(map[signature.Delta]*Node)
	}
	return n
}

// Scheme returns the signature scheme the trie was built with.
func (t *Trie) Scheme() *signature.Scheme { return t.scheme }

// Root returns the root node (the empty graph).
func (t *Trie) Root() *Node { return t.root }

// Size returns the number of nodes, excluding the root.
func (t *Trie) Size() int { return len(t.nodes) - 1 }

// TotalWeight returns the sum of query frequencies added so far.
func (t *Trie) TotalWeight() float64 { return t.total }

// Queries returns the workload entries added so far.
func (t *Trie) Queries() []WorkloadEntry { return append([]WorkloadEntry(nil), t.queries...) }

// AddQuery inserts every connected sub-graph of q into the trie (Alg. 1)
// and adds freq to the support of each distinct node reached. freq is the
// query's relative frequency (any positive weight; supports are normalised
// by the running total). The TPSTry++ "may be trivially updated" as the
// workload evolves (§2) — AddQuery may be called at any time, including
// between stream edges.
func (t *Trie) AddQuery(q *graph.Graph, freq float64) error {
	if freq <= 0 {
		return fmt.Errorf("tpstry: query frequency must be positive, got %v", freq)
	}
	m := q.NumEdges()
	if m == 0 {
		return fmt.Errorf("tpstry: query graph has no edges")
	}
	if m > MaxQueryEdges {
		return fmt.Errorf("tpstry: query graph has %d edges, max %d", m, MaxQueryEdges)
	}
	if q.Directed() {
		return fmt.Errorf("tpstry: directed query graphs are not supported")
	}

	edges := q.Edges()
	// incident[i] lists edge indices sharing a vertex with edge i.
	incident := make([][]int, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			if edges[i].HasEndpoint(edges[j].U) || edges[i].HasEndpoint(edges[j].V) {
				incident[i] = append(incident[i], j)
			}
		}
	}

	// BFS over connected edge subsets. visited maps a subset mask to the
	// trie node it resolved to, ensuring each subset is expanded once;
	// node dedup happens independently via signature keys.
	type state struct {
		mask uint64
		node *Node
		deg  map[graph.VertexID]int // degrees within the subset
	}
	visited := make(map[uint64]bool)
	touched := make(map[*Node]bool) // nodes supported by this query

	var queue []state
	for i := 0; i < m; i++ {
		e := edges[i]
		lu, lv := q.EdgeLabels(e)
		d := t.scheme.EdgeDelta(lu, 0, lv, 0)
		n := t.ensureChild(t.root, d, func() *graph.Graph {
			return graph.InducedSubgraph(q, []graph.Edge{e})
		})
		touched[n] = true
		mask := uint64(1) << i
		if !visited[mask] {
			visited[mask] = true
			queue = append(queue, state{mask: mask, node: n, deg: map[graph.VertexID]int{e.U: 1, e.V: 1}})
		}
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Collect candidate extension edges: incident to any edge in the
		// subset and not already in it.
		candidates := make(map[int]bool)
		for i := 0; i < m; i++ {
			if cur.mask&(1<<uint(i)) == 0 {
				continue
			}
			for _, j := range incident[i] {
				if cur.mask&(1<<uint(j)) == 0 {
					candidates[j] = true
				}
			}
		}
		// Deterministic expansion order.
		cand := make([]int, 0, len(candidates))
		for j := range candidates {
			cand = append(cand, j)
		}
		sort.Ints(cand)

		for _, j := range cand {
			e := edges[j]
			lu, lv := q.EdgeLabels(e)
			d := t.scheme.EdgeDelta(lu, cur.deg[e.U], lv, cur.deg[e.V])
			child := t.ensureChild(cur.node, d, func() *graph.Graph {
				sub := make([]graph.Edge, 0, popcount(cur.mask)+1)
				for i := 0; i < m; i++ {
					if cur.mask&(1<<uint(i)) != 0 {
						sub = append(sub, edges[i])
					}
				}
				sub = append(sub, e)
				return graph.InducedSubgraph(q, sub)
			})
			touched[child] = true
			nmask := cur.mask | 1<<uint(j)
			if !visited[nmask] {
				visited[nmask] = true
				ndeg := make(map[graph.VertexID]int, len(cur.deg)+2)
				for k, v := range cur.deg {
					ndeg[k] = v
				}
				ndeg[e.U]++
				ndeg[e.V]++
				queue = append(queue, state{mask: nmask, node: child, deg: ndeg})
			}
		}
	}

	for n := range touched {
		n.support += freq
	}
	t.total += freq
	t.queries = append(t.queries, WorkloadEntry{Query: q, Freq: freq})
	t.version++
	return nil
}

// Version returns a counter incremented by every workload mutation.
// Cached motif decisions (supports change with every AddQuery) are valid
// only while the version is unchanged.
func (t *Trie) Version() int { return t.version }

// ensureChild returns parent's child along delta d, creating the node
// and/or the link as needed. makeRep lazily builds a representative graph
// for newly created nodes.
func (t *Trie) ensureChild(parent *Node, d signature.Delta, makeRep func() *graph.Graph) *Node {
	if c, ok := parent.ChildByDelta(d); ok {
		return c
	}
	sig := parent.Sig.PlusDelta(d)
	key := sig.Key()
	n, ok := t.nodes[key]
	if !ok {
		n = t.newNode(t.nextID, sig, makeRep(), parent.Edges+1)
		t.nextID++
		t.nodes[key] = n
	}
	t.linkChild(parent, d, n)
	n.parents = append(n.parents, parent)
	return n
}

// linkChild records child as parent's child along delta d (absent, per the
// ChildByDelta check in ensureChild). Construction path only: the sorted
// insert keeps the packed table searchable with zero per-lookup work.
func (t *Trie) linkChild(parent *Node, d signature.Delta, child *Node) {
	if !t.packed {
		parent.cmap[d] = child
		return
	}
	pk := d.Packed()
	i, _ := slices.BinarySearch(parent.ckeys, pk)
	parent.ckeys = slices.Insert(parent.ckeys, i, pk)
	parent.cnodes = slices.Insert(parent.cnodes, i, child)
}

// SupportOf returns a node's support normalised to [0, 1]: the fraction of
// workload weight whose queries contain the node's sub-graph.
func (t *Trie) SupportOf(n *Node) float64 {
	if t.total == 0 {
		return 0
	}
	return n.support / t.total
}

// SupportWeight returns a node's raw (unnormalised) support weight.
// Because every normalised support shares the positive divisor
// TotalWeight, comparing raw weights orders nodes exactly as comparing
// SupportOf does — division-free, for sort comparators on hot paths.
// (With no queries added, all weights are 0, matching SupportOf.)
func (n *Node) SupportWeight() float64 { return n.support }

// IsMotif reports whether n's normalised support meets threshold (§1.3's
// "query motif": a graph occurring with frequency above threshold T).
func (t *Trie) IsMotif(n *Node, threshold float64) bool {
	return n != t.root && t.SupportOf(n) >= threshold
}

// NodeBySignature looks up a node by signature.
func (t *Trie) NodeBySignature(sig *signature.Multiset) (*Node, bool) {
	n, ok := t.nodes[sig.Key()]
	return n, ok
}

// Nodes returns all nodes except the root, sorted by (Edges, ID).
func (t *Trie) Nodes() []*Node {
	out := make([]*Node, 0, len(t.nodes)-1)
	for _, n := range t.nodes {
		if n != t.root {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Edges != out[j].Edges {
			return out[i].Edges < out[j].Edges
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Motifs returns all motif nodes at the given threshold, sorted by
// (Edges, ID).
func (t *Trie) Motifs(threshold float64) []*Node {
	var out []*Node
	for _, n := range t.Nodes() {
		if t.IsMotif(n, threshold) {
			out = append(out, n)
		}
	}
	return out
}

// MaxMotifEdges returns the edge count of the largest motif at threshold,
// or 0 if there are none. The stream matcher uses this to bound match
// growth, and §5.3 uses it to reason about window sizing.
func (t *Trie) MaxMotifEdges(threshold float64) int {
	max := 0
	for _, n := range t.Motifs(threshold) {
		if n.Edges > max {
			max = n.Edges
		}
	}
	return max
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
