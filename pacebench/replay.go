package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pace"
	"pace/internal/align"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/unionfind"
)

// replayer re-runs the sequential engine's pipeline through each layer's
// exported functions, spanning every call, so the layers' self times and
// work counts can be read off one pass. Batches after the first go through
// the fresh-generation entry points, as an incremental session's do.
type replayer struct {
	rec   *recorder
	opt   pace.Options
	sc    align.Scoring
	cr    align.Criteria
	ext   *align.Extender
	set   *seq.SetS
	uf    *unionfind.UF
	same  *tally
	n     replayCounts
	pairs []uint64 // EST pair key of every generated pair
}

// replayCounts are the replay's work counts over all batches.
type replayCounts struct {
	suffixes, nodes, trees             int64
	generated, nodesProcessed, stale   int64
	skipped, aligned, accepted, merges int64
	suffixAlloc, pairgenAlloc          uint64
}

// batchCounts are the incremental counters of one replayed batch, as the
// engine reports them in Stats.Incremental.
type batchCounts struct {
	generated, rebuilt, reused, fresh, stale int64
}

func newReplayer(rec *recorder, opt pace.Options) (*replayer, error) {
	sc := align.Scoring{
		Match: int32(opt.Match), Mismatch: int32(opt.Mismatch),
		GapOpen: int32(opt.GapOpen), GapExtend: int32(opt.GapExtend),
	}
	ext, err := align.NewExtender(sc, opt.Band)
	if err != nil {
		return nil, err
	}
	return &replayer{
		rec: rec, opt: opt, sc: sc, ext: ext,
		cr: align.Criteria{
			MinOverlap:    int32(opt.MinOverlap),
			MinIdentity:   opt.MinIdentity,
			MinScoreRatio: opt.MinScoreRatio,
		},
		same: rec.tally("unionfind.same"),
	}, nil
}

// batch replays one batch of ESTs.
func (r *replayer) batch(ests []string) (batchCounts, error) {
	var bc batchCounts
	w := r.opt.Window

	end := r.rec.scope("seq.parse")
	parsed := make([]seq.Sequence, len(ests))
	for i, e := range ests {
		s, err := seq.Parse(e)
		if err != nil {
			end()
			return bc, fmt.Errorf("EST %d: %w", i, err)
		}
		parsed[i] = s
	}
	var fresh seq.Gen
	var err error
	if r.set == nil {
		r.set, err = seq.NewSetS(parsed)
	} else {
		fresh, err = r.set.Append(parsed)
	}
	end()
	if err != nil {
		return bc, err
	}
	r.seedUnionFind()

	end = r.rec.scope("suffix.bucket")
	a0 := heapAllocs()
	n2 := seq.StringID(r.set.NumStrings())
	hist := suffix.Histogram(r.set, w, 0, n2)
	var owner []int32
	if fresh > 0 {
		owner = suffix.AssignFresh(hist, suffix.HistogramFrom(r.set, w, fresh, 0, n2), 1)
	} else {
		owner = suffix.Assign(hist, 1)
	}
	byBucket := suffix.CollectOwned(r.set, w, owner, 0, 0, n2)
	end()

	end = r.rec.scope("suffix.build")
	forest, err := suffix.BuildForest(r.set, byBucket, w)
	r.n.suffixAlloc += heapAllocs() - a0
	end()
	if err != nil {
		return bc, err
	}
	for _, refs := range byBucket {
		r.n.suffixes += int64(len(refs))
	}
	ts := suffix.Stats(forest)
	r.n.nodes += ts.Nodes
	r.n.trees += int64(ts.Trees)
	bc.rebuilt = int64(len(forest))
	for _, h := range hist {
		if h > 0 {
			bc.reused++
		}
	}
	bc.reused -= bc.rebuilt

	end = r.rec.scope("pairgen.setup")
	a0 = heapAllocs()
	var gen *pairgen.Generator
	if fresh > 0 {
		gen, err = pairgen.NewFresh(r.set, forest, r.opt.MinMatch, fresh)
	} else {
		gen, err = pairgen.New(r.set, forest, r.opt.MinMatch)
	}
	r.n.pairgenAlloc += heapAllocs() - a0
	end()
	if err != nil {
		return bc, err
	}
	if err := r.pairLoop(gen); err != nil {
		return bc, err
	}
	gs := gen.Stats()
	r.n.generated += gs.Generated
	r.n.nodesProcessed += gs.NodesProcessed
	r.n.stale += gs.DiscardedStale
	bc.generated = gs.Generated
	if fresh > 0 {
		bc.fresh, bc.stale = gs.Generated, gs.DiscardedStale
	}
	return bc, nil
}

// seedUnionFind grows the union-find to the set's size, carrying the
// previous partition forward as the engine's InitialLabels seeding does.
func (r *replayer) seedUnionFind() {
	defer r.rec.scope("unionfind.union")()
	var prev []int32
	if r.uf != nil {
		prev = r.uf.Labels()
	}
	r.uf = unionfind.New(r.set.NumESTs())
	first := map[int32]int32{}
	for i, l := range prev {
		if f, ok := first[l]; ok {
			r.uf.Union(f, int32(i))
		} else {
			first[l] = int32(i)
		}
	}
}

// pairLoop drains the generator in engine-sized batches: skip pairs already
// in one cluster, align the rest, merge the accepted ones.
func (r *replayer) pairLoop(gen *pairgen.Generator) error {
	buf := make([]pairgen.Pair, 0, r.opt.BatchSize)
	for {
		end := r.rec.scope("pairgen.next")
		a0 := heapAllocs()
		buf = gen.Next(buf[:0], r.opt.BatchSize)
		r.n.pairgenAlloc += heapAllocs() - a0
		end()
		if len(buf) == 0 {
			return nil
		}
		for _, p := range buf {
			i, j := p.ESTs()
			r.pairs = append(r.pairs, uint64(i)<<32|uint64(j))
			t0 := time.Now()
			same := r.uf.Same(int32(i), int32(j))
			r.same.d += time.Since(t0)
			r.same.calls++
			if same {
				r.n.skipped++
				continue
			}
			end := r.rec.scope("align.extend")
			res, err := r.ext.Extend(r.set.Str(p.S1), r.set.Str(p.S2), p.Pos1, p.Pos2, p.MatchLen)
			ok := err == nil && res.Accept(r.sc, r.cr)
			end()
			if err != nil {
				return fmt.Errorf("aligning pair %+v: %w", p, err)
			}
			r.n.aligned++
			if !ok {
				continue
			}
			r.n.accepted++
			end = r.rec.scope("unionfind.union")
			merged := r.uf.Union(int32(i), int32(j))
			end()
			if merged {
				r.n.merges++
			}
		}
	}
}

// distinctPairs counts the distinct EST pairs among all generated pairs.
func (r *replayer) distinctPairs() int64 {
	sort.Slice(r.pairs, func(a, b int) bool { return r.pairs[a] < r.pairs[b] })
	var n int64
	for i, k := range r.pairs {
		if i == 0 || k != r.pairs[i-1] {
			n++
		}
	}
	return n
}

func (r *replayer) labels() []int { return canonical(r.uf.Labels()) }

// counts are the replay's deterministic counters under their metric names.
func (r *replayer) counts() map[string]int64 {
	return map[string]int64{
		"suffix.suffixes":         r.n.suffixes,
		"suffix.nodes":            r.n.nodes,
		"suffix.trees":            r.n.trees,
		"pairgen.generated":       r.n.generated,
		"pairgen.nodes_processed": r.n.nodesProcessed,
		"pairgen.distinct":        r.distinctPairs(),
		"filter.skipped":          r.n.skipped,
		"align.pairs":             r.n.aligned,
		"align.accepted":          r.n.accepted,
		"unionfind.merges":        r.n.merges,
	}
}

// crossCheck compares the replay against the engine's counters and labels
// for the same input. Every difference is reported.
func crossCheck(what string, got, want map[string]int64, gotLabels, wantLabels []int) error {
	var errs []error
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; ok && g != want[k] {
			errs = append(errs, fmt.Errorf("%s: %s = %d, engine %d", what, k, g, want[k]))
		}
	}
	if !samePartition(gotLabels, wantLabels) {
		errs = append(errs, fmt.Errorf("%s: partition differs from the engine's", what))
	}
	return errors.Join(errs...)
}
