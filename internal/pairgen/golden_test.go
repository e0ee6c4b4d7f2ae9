package pairgen

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"pace/internal/seq"
	"pace/internal/simulate"
	"pace/internal/suffix"
)

// The golden emission-order test pins the generator's full output — every
// pair, in emission order, and every Stats counter — over simulated ESTs at
// the benchmark's shape (w=8, ψ=20). Any change to lset order, dedup, group
// formation or the node processing order changes the hash. The input mixes
// in an identical EST, a contained EST and a contained reverse complement,
// whose suffixes end at their parent's depth and so become terminator leaves,
// a hairpin EST that overlaps its own mate, and tandem repeats, whose strings
// reach one node through two children.

const (
	goldenWindow = 8
	goldenPsi    = 20
	goldenBatch  = 60
)

// goldenESTs returns the simulated ESTs plus the planted duplicates, and the
// index where the second generation starts.
func goldenESTs(t testing.TB) ([]seq.Sequence, int) {
	t.Helper()
	cfg := simulate.DefaultConfig(160)
	cfg.Seed = 7
	bm, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ests := bm.ESTs
	ests = append(ests,
		ests[0].Clone(),                     // identical to EST 0
		ests[1][40:260].Clone(),             // contained in EST 1
		ests[2][30:230].ReverseComplement(), // contained in EST 2's mate
		ests[110].Clone(),                   // identical, across generations
		ests[120][10:goldenPsi+5].Clone(),   // barely longer than ψ
		ests[130][5:goldenWindow+3].Clone(), // shorter than ψ
		append(ests[3][:60].Clone(), ests[3][:60].ReverseComplement()...), // hairpin: self pairs
	)
	// Tandem repeats: one string twice under a node, with the copies'
	// continuations in either branch order.
	for _, k := range []int{5, 6, 7, 8} {
		ests = append(ests, slices.Concat(ests[4][:40], ests[4][:40], ests[k][:60]))
	}
	return ests, 100
}

// goldenHash drains gen in engine-sized batches and hashes the ordered pair
// stream followed by the final Stats.
func goldenHash(gen *Generator) (uint64, int) {
	h := fnv.New64a()
	var b [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	var buf []Pair
	n := 0
	for {
		buf = gen.Next(buf[:0], goldenBatch)
		if len(buf) == 0 {
			break
		}
		for _, p := range buf {
			put(int32(p.S1))
			put(int32(p.S2))
			put(p.Pos1)
			put(p.Pos2)
			put(p.MatchLen)
		}
		n += len(buf)
	}
	st := gen.Stats()
	var b8 [8]byte
	for _, v := range []int64{st.NodesProcessed, st.Generated, st.DiscardedOrientation,
		st.DiscardedSelf, st.DiscardedStale, st.Entries} {
		binary.LittleEndian.PutUint64(b8[:], uint64(v))
		h.Write(b8[:])
	}
	return h.Sum64(), n
}

// freshForest builds the forest an incremental run hands the generator: only
// the buckets the fresh generation touches.
func freshForest(t testing.TB, set *seq.SetS, w int, fresh seq.Gen) []*suffix.Tree {
	t.Helper()
	hi := seq.StringID(set.NumStrings())
	owner := suffix.AssignFresh(suffix.Histogram(set, w, 0, hi), suffix.HistogramFrom(set, w, fresh, 0, hi), 1)
	forest, err := suffix.BuildForest(set, suffix.CollectOwned(set, w, owner, 0, 0, hi), w)
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

func TestGoldenEmissionOrder(t *testing.T) {
	golden := map[string]struct {
		hash  uint64
		pairs int
	}{
		"full":       {0xb7e1733ce8ffa95a, 11549},
		"gen0":       {0x561638aeb6876cef, 3784},
		"gen1-fresh": {0xf094d4d08bd2f3f7, 7765},
	}
	check := func(name string, gen *Generator) {
		t.Helper()
		got, n := goldenHash(gen)
		want := golden[name]
		if got != want.hash || n != want.pairs {
			t.Errorf("%s: hash %#x over %d pairs, want %#x over %d pairs (stats %+v)",
				name, got, n, want.hash, want.pairs, gen.Stats())
		}
	}

	ests, split := goldenESTs(t)

	full, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := New(full, buildForest(t, full, goldenWindow), goldenPsi)
	if err != nil {
		t.Fatal(err)
	}
	check("full", gen)

	set, err := seq.NewSetS(ests[:split])
	if err != nil {
		t.Fatal(err)
	}
	gen, err = NewFresh(set, buildForest(t, set, goldenWindow), goldenPsi, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("gen0", gen)

	fresh, err := set.Append(ests[split:])
	if err != nil {
		t.Fatal(err)
	}
	gen, err = NewFresh(set, freshForest(t, set, goldenWindow, fresh), goldenPsi, fresh)
	if err != nil {
		t.Fatal(err)
	}
	check("gen1-fresh", gen)
}
