package cluster

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"pace/internal/seq"
	"pace/internal/suffix"
)

// TestRunSetIncrementalEquivalence drives the engine-level incremental
// contract directly: a cached sequential run over a prefix, then a
// fresh-only run after appending a tail generation, must reproduce the
// from-scratch partition and split the pair work exactly — every promising
// pair is generated once, in the run that introduces its younger string.
func TestRunSetIncrementalEquivalence(t *testing.T) {
	b := benchSet(t, 60, 4, 13)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18

	full, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cut := len(b.ESTs) - 2
	set, err := seq.NewSetS(b.ESTs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBucketCache()

	c1 := cfg
	c1.Cache = cache
	r1, err := RunSet(set, c1)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Strings() != 2*cut {
		t.Fatalf("cache scanned %d strings, want %d", cache.Strings(), 2*cut)
	}

	// Snapshot the cached subtrees so reuse is observable: pointers of
	// buckets the tail does not touch must survive the second run.
	treesBefore := make(map[int]*suffix.Tree, len(cache.trees))
	for bkt, tr := range cache.trees {
		treesBefore[bkt] = tr
	}

	gen, err := set.Append(b.ESTs[cut:])
	if err != nil {
		t.Fatal(err)
	}
	c2 := cfg
	c2.Cache = cache
	c2.FreshGen = gen
	c2.InitialLabels = r1.Labels
	r2, err := RunSet(set, c2)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := normalizeLabels(r2.Labels), normalizeLabels(full.Labels); len(got) != len(want) {
		t.Fatalf("label count %d != %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("incremental partition differs from from-scratch at EST %d", i)
			}
		}
	}
	if sum := r1.Stats.PairsGenerated + r2.Stats.PairsGenerated; sum != full.Stats.PairsGenerated {
		t.Errorf("prefix %d + fresh %d pairs != from-scratch %d",
			r1.Stats.PairsGenerated, r2.Stats.PairsGenerated, full.Stats.PairsGenerated)
	}
	inc := r2.Stats.Incremental
	if inc.FreshPairs != r2.Stats.PairsGenerated {
		t.Errorf("FreshPairs %d != PairsGenerated %d", inc.FreshPairs, r2.Stats.PairsGenerated)
	}
	if inc.BucketsRebuilt <= 0 || inc.BucketsReused <= 0 {
		t.Errorf("BucketsRebuilt %d / BucketsReused %d, want both > 0",
			inc.BucketsRebuilt, inc.BucketsReused)
	}

	var reused, replaced int
	for bkt, tr := range treesBefore {
		if cache.trees[bkt] == tr {
			reused++
		} else {
			replaced++
		}
	}
	if reused == 0 {
		t.Error("no cached subtree survived the incremental run; untouched buckets should be reused verbatim")
	}
	if replaced == 0 {
		t.Error("no cached subtree was rebuilt; the tail batch must touch some buckets")
	}
}

// TestRunSetGuards exercises the RunSet/Validate rejections around the
// incremental knobs.
func TestRunSetGuards(t *testing.T) {
	b := benchSet(t, 10, 2, 5)
	set, err := seq.NewSetS(b.ESTs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18

	bad := cfg
	bad.FreshGen = seq.Gen(set.NumGenerations())
	if _, err := RunSet(set, bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("FreshGen == NumGenerations: got %v, want out-of-range error", err)
	}

	bad = cfg
	bad.FreshGen = -1
	if err := bad.Validate(); err == nil {
		t.Error("FreshGen < 0: want Validate error")
	}

	cache := NewBucketCache()
	if err := cache.Warm(set, cfg.Window); err != nil {
		t.Fatal(err)
	}
	bad = cfg
	bad.Cache = cache
	if _, err := RunSet(set, bad); err == nil || !strings.Contains(err.Error(), "non-empty cache") {
		t.Errorf("full run over warm cache: got %v, want rejection", err)
	}

	bad = DefaultConfig(4)
	bad.Window, bad.Psi = 6, 18
	bad.Cache = cache
	if err := bad.Validate(); err == nil {
		t.Error("Cache with Procs > 1: want Validate error")
	}
}

// TestBucketCacheConsistency covers the cache's own validation: the window
// is fixed at first use, and the cache must never be ahead of the run's set.
func TestBucketCacheConsistency(t *testing.T) {
	b := benchSet(t, 8, 2, 9)
	big, err := seq.NewSetS(b.ESTs)
	if err != nil {
		t.Fatal(err)
	}
	small, err := seq.NewSetS(b.ESTs[:4])
	if err != nil {
		t.Fatal(err)
	}

	cache := NewBucketCache()
	if err := cache.Warm(big, 6); err != nil {
		t.Fatal(err)
	}
	if err := cache.Warm(big, 8); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("window mismatch: got %v, want error", err)
	}
	if err := cache.Warm(small, 6); err == nil {
		t.Error("cache ahead of set: want error")
	}
	if cache.Buckets() == 0 {
		t.Error("warm cache reports zero buckets")
	}
}

// TestBucketCacheTruncateRollsBackAbsorb proves cache truncation is the
// exact inverse of absorbing a batch: lists shrink back to the prefix run's
// state, subtrees of touched buckets are discarded (they index dead
// suffixes), untouched subtrees survive verbatim, and a re-run of the batch
// after rollback reproduces the from-scratch partition and pair counts —
// the retried-Add-equals-first-attempt contract at the engine level.
func TestBucketCacheTruncateRollsBackAbsorb(t *testing.T) {
	b := benchSet(t, 60, 4, 13)
	cfg := DefaultConfig(1)
	cfg.Window, cfg.Psi = 6, 18

	full, err := Run(b.ESTs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cut := len(b.ESTs) - 3
	set, err := seq.NewSetS(b.ESTs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBucketCache()
	c1 := cfg
	c1.Cache = cache
	r1, err := RunSet(set, c1)
	if err != nil {
		t.Fatal(err)
	}
	bucketsBefore := cache.Buckets()
	lenBefore := make(map[int]int, len(cache.byBucket))
	for bkt, refs := range cache.byBucket {
		lenBefore[bkt] = len(refs)
	}
	treesBefore := make(map[int]*suffix.Tree, len(cache.trees))
	for bkt, tr := range cache.trees {
		treesBefore[bkt] = tr
	}

	// Absorb the tail batch (as a failed run would have), then roll back.
	gen, err := set.Append(b.ESTs[cut:])
	if err != nil {
		t.Fatal(err)
	}
	c2 := cfg
	c2.Cache = cache
	c2.FreshGen = gen
	c2.InitialLabels = r1.Labels
	if _, err := RunSet(set, c2); err != nil {
		t.Fatal(err)
	}
	// Truncate binary-searches the lists, so rebuilding their subtrees must
	// leave them in ascending string order.
	for bkt, refs := range cache.byBucket {
		if !slices.IsSortedFunc(refs, func(a, b suffix.SuffixRef) int { return cmp.Compare(a.SID, b.SID) }) {
			t.Fatalf("bucket %d: cached suffix list out of string order after a rebuild", bkt)
		}
	}
	cache.Truncate(seq.Forward(seq.ESTID(cut)))
	if err := set.Truncate(cut); err != nil {
		t.Fatal(err)
	}

	if cache.Strings() != 2*cut {
		t.Fatalf("truncated cache scanned %d strings, want %d", cache.Strings(), 2*cut)
	}
	if cache.Buckets() != bucketsBefore {
		t.Errorf("truncated cache holds %d buckets, want %d", cache.Buckets(), bucketsBefore)
	}
	for bkt, refs := range cache.byBucket {
		if len(refs) != lenBefore[bkt] {
			t.Errorf("bucket %d has %d refs after rollback, want %d", bkt, len(refs), lenBefore[bkt])
		}
	}
	for bkt, tr := range cache.trees {
		if treesBefore[bkt] != tr {
			t.Errorf("bucket %d kept a subtree built over rolled-back suffixes", bkt)
		}
	}

	// The retried batch must behave exactly like a first attempt.
	gen2, err := set.Append(b.ESTs[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != gen {
		t.Fatalf("retried Append got generation %d, want %d", gen2, gen)
	}
	c3 := cfg
	c3.Cache = cache
	c3.FreshGen = gen2
	c3.InitialLabels = r1.Labels
	r3, err := RunSet(set, c3)
	if err != nil {
		t.Fatal(err)
	}
	got, want := normalizeLabels(r3.Labels), normalizeLabels(full.Labels)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("retried run's partition differs from from-scratch at EST %d", i)
		}
	}
	if sum := r1.Stats.PairsGenerated + r3.Stats.PairsGenerated; sum != full.Stats.PairsGenerated {
		t.Errorf("prefix %d + retried %d pairs != from-scratch %d",
			r1.Stats.PairsGenerated, r3.Stats.PairsGenerated, full.Stats.PairsGenerated)
	}
}

// TestCheckpointFromLabels round-trips a finished partition through the
// session checkpoint constructor.
func TestCheckpointFromLabels(t *testing.T) {
	labels := []int32{0, 0, 1, 2, 1}
	ck, err := CheckpointFromLabels(len(labels), 6, 18, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NumESTs != len(labels) || ck.Window != 6 || ck.Psi != 18 {
		t.Errorf("checkpoint header = {%d %d %d}, want {5 6 18}", ck.NumESTs, ck.Window, ck.Psi)
	}
	// 5 ESTs in 3 clusters: seeding needs exactly 2 unions.
	if ck.Merges != 2 {
		t.Errorf("Merges = %d, want 2", ck.Merges)
	}
	got := normalizeLabels(ck.Labels())
	want := normalizeLabels(labels)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored partition differs at %d: %v vs %v", i, got, want)
		}
	}

	if _, err := CheckpointFromLabels(4, 6, 18, labels); err == nil {
		t.Error("label/EST count mismatch: want error")
	}
}
