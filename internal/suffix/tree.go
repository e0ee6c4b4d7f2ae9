package suffix

import (
	"fmt"

	"pace/internal/seq"
)

// Node is one GST node in the DFS-array representation (paper §3.1).
// Sixteen bytes per node: space linear in the input with a small constant.
type Node struct {
	// Depth is the node's string-depth (length of its path label).
	Depth int32
	// RML is the index of the rightmost leaf in the node's subtree.
	// A node is a leaf iff RML points to itself. The first child of an
	// internal node is the next array entry; the next sibling of a node
	// is the entry after its rightmost leaf (none if it shares RML with
	// its parent).
	RML int32
	// SID/Pos name a representative suffix in the node's subtree: the
	// node's path label is Str(SID)[Pos : Pos+Depth]. For a leaf this is
	// the leaf's own suffix.
	SID seq.StringID
	Pos int32
}

// Tree is one bucket's subtree of the conceptual GST, in preorder.
type Tree struct {
	// Bucket is the bucket id this subtree was built from.
	Bucket int
	// Nodes are the tree nodes in depth-first (preorder) order; Nodes[0]
	// is the subtree root.
	Nodes []Node
	// leaves caches the leaf count; Build and ReadTree fill it so NumLeaves
	// need not rescan the node array on every stats or serialization call.
	leaves int
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.Nodes) }

// IsLeaf reports whether node i is a leaf.
func (t *Tree) IsLeaf(i int32) bool { return t.Nodes[i].RML == i }

// FirstChild returns the first child of internal node i.
func (t *Tree) FirstChild(i int32) int32 { return i + 1 }

// NextSibling returns the next sibling of node i under parent p, or -1.
func (t *Tree) NextSibling(i, p int32) int32 {
	if t.Nodes[i].RML == t.Nodes[p].RML {
		return -1
	}
	return t.Nodes[i].RML + 1
}

// Children appends the child indices of node i to buf and returns it.
func (t *Tree) Children(i int32, buf []int32) []int32 {
	if t.IsLeaf(i) {
		return buf
	}
	for c := t.FirstChild(i); c != -1; c = t.NextSibling(c, i) {
		buf = append(buf, c)
	}
	return buf
}

// PathLabel reconstructs the path label of node i from its representative
// suffix.
func (t *Tree) PathLabel(set *seq.SetS, i int32) seq.Sequence {
	n := t.Nodes[i]
	return set.Str(n.SID)[n.Pos : n.Pos+n.Depth]
}

// NumLeaves returns the number of leaves (i.e. suffixes) in the tree. Trees
// from Build or ReadTree answer from a count cached at construction; a tree
// assembled by hand falls back to a scan.
func (t *Tree) NumLeaves() int {
	if t.leaves > 0 || len(t.Nodes) == 0 {
		return t.leaves
	}
	return t.countLeaves()
}

func (t *Tree) countLeaves() int {
	c := 0
	for i := range t.Nodes {
		if t.IsLeaf(int32(i)) {
			c++
		}
	}
	return c
}

// Builder constructs bucket subtrees. It owns the scratch the construction
// permutes — a copy of the bucket's suffix list, the partition target, each
// suffix's branch class and the node array under construction — and reuses
// it across buckets, so building a forest allocates only the trees it
// returns. A Builder is not safe for concurrent use.
type Builder struct {
	set     *seq.SetS
	refs    []SuffixRef // the bucket's suffixes, partitioned in place
	scratch []SuffixRef // stable-partition target
	class   []uint8     // branch class of refs[i] at the current node
	nodes   []Node      // the tree under construction
}

// NewBuilder returns a Builder over set.
func NewBuilder(set *seq.SetS) *Builder { return &Builder{set: set} }

// suffixLen returns the length of the suffix ref.
func (b *Builder) suffixLen(r SuffixRef) int32 {
	return int32(len(b.set.Str(r.SID))) - r.Pos
}

// Build constructs the subtree for a bucket's suffixes, which all share
// their first w characters. Construction is the paper's simple
// character-at-a-time recursive bucketing: O(sum of suffix lengths) for the
// bucket, i.e. O(N·l/p) per worker overall — efficient in practice because
// the average EST length l is independent of n.
// Building an empty bucket returns ErrEmptyBucket (wrapped with the bucket
// id); incremental rebuilds legitimately produce such buckets when every
// cached suffix of a bucket belongs to strings that no longer map to it, and
// callers are expected to skip them explicitly rather than fail.
// Build permutes a private copy of suffixes; the caller's slice is left as
// it was.
func Build(set *seq.SetS, bucket int, suffixes []SuffixRef, w int) (*Tree, error) {
	return NewBuilder(set).Build(bucket, suffixes, w)
}

// Build is the package-level Build on the Builder's reused scratch.
func (b *Builder) Build(bucket int, suffixes []SuffixRef, w int) (*Tree, error) {
	if len(suffixes) == 0 {
		return nil, fmt.Errorf("suffix: bucket %d: %w", bucket, ErrEmptyBucket)
	}
	for _, r := range suffixes {
		if b.suffixLen(r) < int32(w) {
			return nil, fmt.Errorf("suffix: suffix (%d,%d) shorter than window %d", r.SID, r.Pos, w)
		}
	}
	n := len(suffixes)
	if cap(b.refs) < n {
		b.refs = make([]SuffixRef, n)
		b.scratch = make([]SuffixRef, n)
		b.class = make([]uint8, n)
	}
	b.refs = b.refs[:n]
	copy(b.refs, suffixes)
	b.nodes = b.nodes[:0]
	b.build(0, int32(n), int32(w))
	nodes := make([]Node, len(b.nodes))
	copy(nodes, b.nodes)
	return &Tree{Bucket: bucket, Nodes: nodes, leaves: n}, nil
}

// emitLeaf appends a leaf for suffix r (depth = full suffix length).
func (b *Builder) emitLeaf(r SuffixRef) {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Depth: b.suffixLen(r), RML: i, SID: r.SID, Pos: r.Pos})
}

// build adds the subtree for the suffixes refs[lo:hi], which share their
// first `depth` characters. Conceptually every suffix ends with a unique
// terminator, so identical suffixes from different strings split at an
// internal node whose leaf children they become. Children come out in a
// fixed order: terminator leaves first, in input order, then the subtrees
// for A, C, G and T.
func (b *Builder) build(lo, hi, depth int32) {
	group := b.refs[lo:hi]
	if len(group) == 1 {
		b.emitLeaf(group[0])
		return
	}
	// Path compression: the node sits at the longest prefix every suffix
	// of the group shares, found one suffix at a time against the first.
	first := b.set.Suffix(group[0].SID, group[0].Pos)
	end := int32(len(first))
	for _, r := range group[1:] {
		s := b.set.Suffix(r.SID, r.Pos)
		lim := min(end, int32(len(s)))
		d := depth
		for d < lim && s[d] == first[d] {
			d++
		}
		if end = d; end == depth {
			break
		}
	}
	depth = end
	// Internal node at this depth; partition the group stably into suffixes
	// that end here (class 0, terminator children) and per-character
	// subgroups (class 1+c), through the scratch buffer.
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Depth: depth, SID: group[0].SID, Pos: group[0].Pos})

	class := b.class[lo:hi]
	var start [seq.AlphabetSize + 1]int32
	for i, r := range group {
		k := uint8(0)
		if s := b.set.Suffix(r.SID, r.Pos); int32(len(s)) != depth {
			k = 1 + uint8(s[depth])
		}
		class[i] = k
		start[k]++
	}
	acc := int32(0)
	for k, c := range start {
		start[k] = acc
		acc += c
	}
	scratch := b.scratch[:len(group)]
	for i, r := range group {
		k := class[i]
		scratch[start[k]] = r
		start[k]++
	}
	copy(group, scratch)

	// start[k] is now the end of class k within the group.
	for _, r := range group[:start[0]] {
		b.emitLeaf(r) // terminator edge: leaf at the same string-depth
	}
	for k := 1; k <= seq.AlphabetSize; k++ {
		if start[k] > start[k-1] {
			b.build(lo+start[k-1], lo+start[k], depth+1)
		}
	}
	b.nodes[self].RML = int32(len(b.nodes)) - 1
}

// BuildForest builds the subtree of every bucket in the map, in ascending
// bucket order, on one Builder. Buckets whose suffix list is empty are
// skipped: incremental rebuilds can leave such entries behind, and they
// carry no subtree.
func BuildForest(set *seq.SetS, byBucket map[int][]SuffixRef, w int) ([]*Tree, error) {
	ids := SortedBucketIDs(byBucket)
	forest := make([]*Tree, 0, len(ids))
	b := NewBuilder(set)
	for _, id := range ids {
		refs := byBucket[id]
		if len(refs) == 0 {
			continue
		}
		t, err := b.Build(id, refs, w)
		if err != nil {
			return nil, err
		}
		forest = append(forest, t)
	}
	return forest, nil
}

// Verify checks the structural invariants of a tree against the sequence
// set; it is O(total suffix length) and intended for tests and debugging.
func (t *Tree) Verify(set *seq.SetS) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("suffix: empty tree")
	}
	var walk func(i int32) (next int32, err error)
	walk = func(i int32) (int32, error) {
		n := t.Nodes[i]
		if n.RML < i || int(n.RML) >= len(t.Nodes) {
			return 0, fmt.Errorf("node %d: RML %d out of range", i, n.RML)
		}
		if int(n.Pos+n.Depth) > len(set.Str(n.SID)) {
			return 0, fmt.Errorf("node %d: representative overruns string", i)
		}
		if t.IsLeaf(i) {
			if n.Depth != int32(len(set.Str(n.SID)))-n.Pos {
				return 0, fmt.Errorf("leaf %d: depth %d is not its suffix length", i, n.Depth)
			}
			return i + 1, nil
		}
		label := t.PathLabel(set, i)
		nChildren := 0
		for c := t.FirstChild(i); c != -1; c = t.NextSibling(c, i) {
			nChildren++
			cn := t.Nodes[c]
			if cn.Depth < n.Depth {
				return 0, fmt.Errorf("child %d shallower than parent %d", c, i)
			}
			if cn.Depth == n.Depth && !t.IsLeaf(c) {
				return 0, fmt.Errorf("internal child %d at same depth as parent %d", c, i)
			}
			childPrefix := set.Str(cn.SID)[cn.Pos : cn.Pos+n.Depth]
			if !childPrefix.Equal(label) {
				return 0, fmt.Errorf("child %d does not extend parent %d's label", c, i)
			}
			if _, err := walk(c); err != nil {
				return 0, err
			}
		}
		if nChildren < 2 {
			return 0, fmt.Errorf("internal node %d has %d children", i, nChildren)
		}
		return n.RML + 1, nil
	}
	next, err := walk(0)
	if err != nil {
		return err
	}
	if int(next) != len(t.Nodes) {
		return fmt.Errorf("walk covered %d of %d nodes", next, len(t.Nodes))
	}
	return nil
}
