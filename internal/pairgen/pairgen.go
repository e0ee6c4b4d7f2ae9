// Package pairgen implements the paper's §3.2: on-demand generation of
// promising pairs from a forest of local GST subtrees, in decreasing order of
// maximal common substring length.
//
// Every internal node of string-depth >= ψ is processed in decreasing
// string-depth order. Each such node owns five lsets — the strings owning a
// suffix in the node's subtree, partitioned by the suffix's left-extension
// character (A, C, G, T, or λ) — implemented as linked lists with O(1)
// concatenation so total lset storage stays linear in the input (paper's
// O(N) bound). A leaf owns no lset: its one suffix is read straight from the
// tree's DFS array when its parent is processed. At an internal node,
// duplicate string occurrences across children are removed with a global
// mark array, cartesian products across (child, character) groups emit the
// pairs whose maximal common substring is the node's path label (Lemma 1),
// and the surviving entries are concatenated into the node's own lsets.
//
// The generator is resumable: it remembers its position inside a node's
// cartesian products, so callers pull pairs in batches without ever
// materializing a node's full pair set (the on-demand property that keeps
// the paper's memory footprint linear).
package pairgen

import (
	"fmt"
	"time"

	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/telemetry"
)

// Pair is one promising pair in canonical orientation: S1 is the forward
// string of the lower-numbered EST; S2 belongs to a strictly higher-numbered
// EST in either orientation. The strings share the exact anchor match
// S1[Pos1:Pos1+MatchLen] == S2[Pos2:Pos2+MatchLen], a maximal common
// substring of the two strings.
type Pair struct {
	S1, S2     seq.StringID
	Pos1, Pos2 int32
	MatchLen   int32
}

// ESTs returns the pair's EST ids (i < j).
func (p Pair) ESTs() (seq.ESTID, seq.ESTID) { return p.S1.EST(), p.S2.EST() }

// Stats counts generator activity.
type Stats struct {
	// NodesProcessed is the number of tree nodes of depth >= ψ processed.
	// Deep leaves need no work of their own and are counted when the
	// generator is built; deep internal nodes as Next reaches them.
	NodesProcessed int64
	// Generated counts canonical pairs emitted.
	Generated int64
	// DiscardedOrientation counts pairs dropped by the canonical-
	// orientation rule (the equivalent reverse-complemented duplicate is
	// emitted elsewhere).
	DiscardedOrientation int64
	// DiscardedSelf counts pairs of a string with its own EST's other
	// orientation (or itself), which carry no clustering information.
	DiscardedSelf int64
	// DiscardedStale counts pairs suppressed by the fresh-only mode because
	// both strings predate the current batch: their maximal common substring
	// is a property of the two strings alone, so the pair was already
	// generated — and judged — in the generation that introduced the younger
	// of the two.
	DiscardedStale int64
	// Entries is the number of lset entries in the paper's accounting, one
	// per deep leaf — the generator's O(N) working set. Only leaves merged
	// into a deep parent take pool space.
	Entries int64
}

// list is a singly linked lset; head/tail index the forest-wide entry pool.
type list struct{ head, tail int32 }

var emptyList = list{head: -1, tail: -1}

// entry is one lset element.
type entry struct {
	sid  seq.StringID
	pos  int32
	next int32
}

// nodeRef addresses one node in the forest.
type nodeRef struct {
	tree int32
	node int32
}

// group is a snapshot of one (child, left-character) lset taken while
// processing an internal node; pairs are cartesian products across
// compatible groups.
type group struct {
	child int32
	char  seq.Code
	// items indexes into the generator's itemsBuf scratch.
	lo, hi int32
	// fresh reports whether any item belongs to the current batch; a pair of
	// all-stale groups cannot produce a fresh pair and is skipped wholesale.
	fresh bool
}

type item struct {
	sid seq.StringID
	pos int32
}

// Generator produces promising pairs on demand.
type Generator struct {
	set    *seq.SetS
	psi    int32
	forest []*suffix.Tree
	// base[t] is the forest-wide index of tree t's node 0 in rowOf.
	base []int32
	// rowOf maps a forest-wide node index to its row in rows. Only deep
	// internal nodes own rows; the entries of leaves and of nodes shallower
	// than ψ are never read.
	rowOf []int32
	rows  [][seq.NumLeftChars]list
	// pool holds one entry per leaf merged into a deep parent, sized exactly
	// for the leaves that have one.
	pool []entry
	// freshID is the fresh-only threshold: pairs whose strings both have an
	// id below it are suppressed (0 emits everything). Generations are
	// monotone in string id, so freshness is a single comparison.
	freshID seq.StringID

	order  []nodeRef
	cursor int

	mark  []int32
	token int32

	// Iteration state over the current internal node's groups.
	groups   []group
	itemsBuf []item
	curDepth int32
	gi, gj   int
	ii, jj   int32
	active   bool

	stats Stats
	obs   Observer
}

// Observer carries optional live telemetry hooks; the zero value disables
// them. Each field is checked with a nil test in the hot loop, so a
// generator without an observer pays (nearly) nothing, and an attached
// observer pays only atomic updates — cheap enough to leave on even with no
// sink draining the metrics (see BenchmarkNextInstrumented).
type Observer struct {
	// MCSLen observes the maximal-common-substring length of every
	// canonical pair emitted — the paper's pairs-by-length distribution.
	MCSLen *telemetry.Histogram
	// BatchNs observes the latency of each Next call, in nanoseconds.
	BatchNs *telemetry.Histogram
	// Clock supplies the elapsed time base for BatchNs; nil means wall
	// time. Deterministic sim runs inject the engine's clock so latency
	// observations replay identically.
	Clock func() time.Duration
	// Generated counts canonical pairs emitted.
	Generated *telemetry.Counter
}

// Observe installs (or replaces) the generator's telemetry hooks.
func (g *Generator) Observe(o Observer) { g.obs = o }

// New builds a generator over the given forest. psi is the promising-pair
// threshold ψ: only nodes of string-depth >= psi generate pairs. The bucket
// window w used to build the forest must satisfy w <= psi, otherwise pairs
// whose maximal common substring is shorter than w would be silently lost;
// the caller is responsible for that invariant (it is validated by the
// clustering layer).
func New(set *seq.SetS, forest []*suffix.Tree, psi int) (*Generator, error) {
	return NewFresh(set, forest, psi, 0)
}

// NewFresh builds a generator restricted to pairs involving the current
// batch: only pairs where at least one string has generation >= fresh are
// emitted (the paper's Lemmas 1–4 guarantee an old×old pair's maximal common
// substring — and hence the pair itself — was already produced by the run
// that introduced the younger string). fresh == 0 emits every pair, exactly
// like New. Lsets are still built over all suffixes in the forest, so the
// emitted fresh pairs are identical to what a full run would produce for
// them, dedup included.
func NewFresh(set *seq.SetS, forest []*suffix.Tree, psi int, fresh seq.Gen) (*Generator, error) {
	if psi < 1 {
		return nil, fmt.Errorf("pairgen: psi must be >= 1, got %d", psi)
	}
	g := &Generator{
		set:    set,
		psi:    int32(psi),
		forest: forest,
		base:   make([]int32, len(forest)),
		mark:   make([]int32, set.NumStrings()),
	}
	if fresh > 0 {
		g.freshID = set.GenStartString(fresh)
	}
	total := 0
	for ti, t := range forest {
		g.base[ti] = int32(total)
		total += t.Len()
	}
	g.rowOf = make([]int32, total)

	// Setup sweep: number the deep internal nodes, count the deep leaves
	// (Stats counts each as a processed node with one lset entry) and size
	// the pool. A deep leaf takes pool space when it is merged into its
	// parent, so only leaves with a deep parent need it; in preorder those
	// are exactly the leaves inside the subtree of an earlier deep internal
	// node.
	var rows, leaves, entries int32
	counts := make([]int32, 0, 1024) // deep internal nodes per string-depth
	for ti, t := range forest {
		rowOf := g.rowOf[g.base[ti]:]
		cover := int32(-1)
		for i, n := range t.Nodes {
			if n.Depth < g.psi {
				continue
			}
			if n.RML == int32(i) {
				leaves++
				if int32(i) <= cover {
					entries++
				}
				continue
			}
			rowOf[i] = rows
			rows++
			cover = max(cover, n.RML)
			for int(n.Depth) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[n.Depth]++
		}
	}
	g.stats.NodesProcessed = int64(leaves)
	g.stats.Entries = int64(leaves)
	g.rows = make([][seq.NumLeftChars]list, rows)
	for i := range g.rows {
		for c := range g.rows[i] {
			g.rows[i][c] = emptyList
		}
	}
	g.pool = make([]entry, 0, entries)
	g.buildOrder(counts, int(rows))
	return g, nil
}

// buildOrder sorts the deep internal nodes of the forest by decreasing
// string-depth, breaking ties by descending tree and node index so that
// children (which follow their parent in preorder and are at least as deep)
// are always processed before their parent. counts[d] is the number of deep
// internal nodes at depth d. The sort is the O(sorting) term of the paper's
// Lemma 4; a counting sort keeps it linear.
func (g *Generator) buildOrder(counts []int32, total int) {
	if total == 0 {
		return
	}
	// Prefix-sum from the deepest down so larger depths come first.
	start := make([]int32, len(counts))
	acc := int32(0)
	for d := len(counts) - 1; d >= int(g.psi); d-- {
		start[d] = acc
		acc += counts[d]
	}
	g.order = make([]nodeRef, total)
	// Walk node indices in reverse so, within a depth class, higher
	// indices are placed first (children before parents).
	for ti := len(g.forest) - 1; ti >= 0; ti-- {
		nodes := g.forest[ti].Nodes
		for i := len(nodes) - 1; i >= 0; i-- {
			n := &nodes[i]
			if n.Depth >= g.psi && n.RML != int32(i) {
				g.order[start[n.Depth]] = nodeRef{tree: int32(ti), node: int32(i)}
				start[n.Depth]++
			}
		}
	}
}

// Stats returns a copy of the activity counters.
func (g *Generator) Stats() Stats { return g.stats }

// Remaining reports whether more pairs may still be produced (conservative:
// true until the final node is exhausted).
func (g *Generator) Remaining() bool {
	return g.active || g.cursor < len(g.order)
}

// Next appends up to max pairs to dst and returns the extended slice.
// A return with no appended pairs means the generator is exhausted.
func (g *Generator) Next(dst []Pair, max int) []Pair {
	if g.obs.BatchNs != nil {
		clk := g.obs.Clock
		if clk == nil {
			clk = telemetry.NewWallClock().Elapsed
		}
		start := clk()
		defer func() { g.obs.BatchNs.Observe((clk() - start).Nanoseconds()) }()
	}
	want := len(dst) + max
	for len(dst) < want {
		if !g.active {
			if g.cursor >= len(g.order) {
				return dst
			}
			ref := g.order[g.cursor]
			g.cursor++
			g.processNode(ref)
			continue
		}
		dst = g.emit(dst, want)
	}
	return dst
}

// processNode dedups the children of a deep internal node, snapshots the
// surviving (child, left-character) groups, unions them into the node's own
// lsets and arms pair iteration. A leaf child is read straight from the
// tree's node array: its one suffix forms a one-item group and enters the
// pool only if it survives dedup.
func (g *Generator) processNode(ref nodeRef) {
	nodes := g.forest[ref.tree].Nodes
	rowOf := g.rowOf[g.base[ref.tree]:]
	g.stats.NodesProcessed++

	// Dedup every child with a fresh token, snapshotting survivors, and
	// concatenate the surviving lists onto this node's (O(|Σ|) per child).
	g.token++
	g.groups = g.groups[:0]
	g.itemsBuf = g.itemsBuf[:0]
	dst := &g.rows[rowOf[ref.node]]
	last := nodes[ref.node].RML
	childOrd := int32(0)
	for c := ref.node + 1; ; childOrd++ {
		cn := &nodes[c]
		if cn.RML == c {
			g.leafChild(dst, childOrd, cn.SID, cn.Pos)
		} else {
			g.internalChild(dst, &g.rows[rowOf[c]], childOrd)
		}
		if cn.RML == last {
			break
		}
		c = cn.RML + 1
	}

	g.curDepth = nodes[ref.node].Depth
	g.gi, g.gj, g.ii, g.jj = 0, 1, 0, 0
	g.active = len(g.groups) >= 2
}

// leafChild handles a leaf child of the node being processed: unless its
// string is already marked, it forms the group (child, left char) of one
// item and its entry is appended to dst's list for that character.
func (g *Generator) leafChild(dst *[seq.NumLeftChars]list, child int32, sid seq.StringID, pos int32) {
	if g.mark[sid] == g.token {
		return
	}
	g.mark[sid] = g.token
	ch := g.set.LeftChar(sid, pos)
	lo := int32(len(g.itemsBuf))
	g.itemsBuf = append(g.itemsBuf, item{sid: sid, pos: pos})
	g.groups = append(g.groups, group{child: child, char: ch, lo: lo, hi: lo + 1, fresh: sid >= g.freshID})
	e := int32(len(g.pool))
	g.pool = append(g.pool, entry{sid: sid, pos: pos, next: -1})
	g.concat(&dst[ch], list{head: e, tail: e})
}

// internalChild dedups each of an internal child's lsets in place,
// snapshots the survivors as groups and appends the lists to dst's.
func (g *Generator) internalChild(dst, src *[seq.NumLeftChars]list, child int32) {
	for ch := seq.Code(0); ch < seq.NumLeftChars; ch++ {
		l := &src[ch]
		prev := int32(-1)
		cur := l.head
		lo := int32(len(g.itemsBuf))
		fresh := false
		for cur != -1 {
			e := &g.pool[cur]
			if g.mark[e.sid] == g.token {
				// Duplicate occurrence: unlink.
				if prev == -1 {
					l.head = e.next
				} else {
					g.pool[prev].next = e.next
				}
				if e.next == -1 {
					l.tail = prev
				}
				cur = e.next
				continue
			}
			g.mark[e.sid] = g.token
			g.itemsBuf = append(g.itemsBuf, item{sid: e.sid, pos: e.pos})
			fresh = fresh || e.sid >= g.freshID
			prev = cur
			cur = e.next
		}
		if hi := int32(len(g.itemsBuf)); hi > lo {
			g.groups = append(g.groups, group{child: child, char: ch, lo: lo, hi: hi, fresh: fresh})
			g.concat(&dst[ch], *l)
		}
	}
}

// concat appends the non-empty list src to dst.
func (g *Generator) concat(dst *list, src list) {
	if dst.head == -1 {
		*dst = src
		return
	}
	g.pool[dst.tail].next = src.head
	dst.tail = src.tail
}

// compatible reports whether two groups may produce pairs: different
// children, and left characters that differ or are both λ (Algorithm 1's
// ProcessInternalNode condition).
func compatible(a, b group) bool {
	if a.child == b.child {
		return false
	}
	return a.char != b.char || (a.char == seq.Lambda && b.char == seq.Lambda)
}

// emit appends pairs from the current node until dst reaches want length or
// the node is exhausted.
func (g *Generator) emit(dst []Pair, want int) []Pair {
	for len(dst) < want {
		// Advance to the next compatible group pair if needed. Two all-stale
		// groups cannot produce a fresh pair, so their whole cartesian
		// product is skipped in O(1).
		for g.gi < len(g.groups) {
			if g.gj >= len(g.groups) {
				g.gi++
				g.gj = g.gi + 1
				continue
			}
			if !compatible(g.groups[g.gi], g.groups[g.gj]) ||
				!(g.groups[g.gi].fresh || g.groups[g.gj].fresh) {
				g.gj++
				continue
			}
			break
		}
		if g.gi >= len(g.groups) {
			g.active = false
			return dst
		}
		ga, gb := g.groups[g.gi], g.groups[g.gj]
		a := g.itemsBuf[ga.lo+g.ii]
		b := g.itemsBuf[gb.lo+g.jj]

		// Advance the inner cursors for next time.
		g.jj++
		if gb.lo+g.jj >= gb.hi {
			g.jj = 0
			g.ii++
			if ga.lo+g.ii >= ga.hi {
				g.ii = 0
				g.gj++
			}
		}

		if a.sid < g.freshID && b.sid < g.freshID {
			// Old×old inside a mixed group pair: already judged in an
			// earlier generation.
			g.stats.DiscardedStale++
			continue
		}

		if p, ok := g.canonical(a, b); ok {
			dst = append(dst, p)
			g.stats.Generated++
			if g.obs.MCSLen != nil {
				g.obs.MCSLen.Observe(int64(p.MatchLen))
			}
			if g.obs.Generated != nil {
				g.obs.Generated.Inc()
			}
		}
	}
	return dst
}

// canonical applies the paper's duplicate-avoidance rule: a pair is reported
// only when the string of the lower-numbered EST appears in forward
// orientation (its reverse-complemented twin is generated — and discarded —
// elsewhere). Pairs within a single EST are meaningless and dropped.
func (g *Generator) canonical(a, b item) (Pair, bool) {
	ea, eb := a.sid.EST(), b.sid.EST()
	if ea == eb {
		g.stats.DiscardedSelf++
		return Pair{}, false
	}
	if eb < ea {
		a, b = b, a
	}
	if a.sid.IsReverse() {
		g.stats.DiscardedOrientation++
		return Pair{}, false
	}
	return Pair{
		S1: a.sid, S2: b.sid,
		Pos1: a.pos, Pos2: b.pos,
		MatchLen: g.curDepth,
	}, true
}
