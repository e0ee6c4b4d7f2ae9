package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/unionfind"
)

// Incremental batch ingest: the session layer appends a batch of ESTs to a
// SetS (a new generation), seeds the union-find with the previous partition
// (Config.InitialLabels), and re-runs the pipeline with Config.FreshGen set.
// Only the buckets the batch's suffixes fall into are (re)built, and inside
// them only pairs involving a fresh string are generated; a pair's maximal
// common substring depends on the two strings alone, so every suppressed
// old×old pair was already produced and judged by an earlier run, and the
// final partition is identical to a from-scratch run over the union.

// BucketCache carries per-bucket GST state across the sequential runs of a
// session. Suffix lists grow in place as generations arrive — strings are
// scanned exactly once, in ascending id order, so each bucket's list is
// byte-for-byte what a from-scratch collection would produce and rebuilt
// subtrees are identical to scratch-built ones. Subtrees of buckets a batch
// does not touch are reused verbatim.
//
// The cache is single-goroutine state owned by its session; it is not safe
// for concurrent runs.
type BucketCache struct {
	w        int
	scanned  seq.StringID
	byBucket map[int][]suffix.SuffixRef
	trees    map[int]*suffix.Tree
}

// NewBucketCache returns an empty cache, ready to be carried across a
// session's runs via Config.Cache.
func NewBucketCache() *BucketCache {
	return &BucketCache{
		byBucket: make(map[int][]suffix.SuffixRef),
		trees:    make(map[int]*suffix.Tree),
	}
}

// Strings reports how many strings the cache has scanned.
func (bc *BucketCache) Strings() int { return int(bc.scanned) }

// Buckets reports how many non-empty buckets the cache holds.
func (bc *BucketCache) Buckets() int { return len(bc.byBucket) }

// absorb scans strings [bc.scanned, hi) into the per-bucket suffix lists and
// returns, in ascending order, the ids of buckets that received suffixes.
func (bc *BucketCache) absorb(set *seq.SetS, w int, hi seq.StringID) ([]int, error) {
	if bc.w == 0 {
		bc.w = w
	}
	if bc.w != w {
		return nil, fmt.Errorf("cluster: bucket cache was built with window %d, run uses %d", bc.w, w)
	}
	if hi < bc.scanned {
		return nil, fmt.Errorf("cluster: bucket cache covers %d strings but the run has only %d", bc.scanned, hi)
	}
	touched := make(map[int]bool)
	for id := bc.scanned; id < hi; id++ {
		suffix.BucketEach(set.Str(id), w, func(b int, pos int32) {
			bc.byBucket[b] = append(bc.byBucket[b], suffix.SuffixRef{SID: id, Pos: pos})
			touched[b] = true
		})
	}
	bc.scanned = hi
	ids := make([]int, 0, len(touched))
	for b := range touched {
		ids = append(ids, b)
	}
	sort.Ints(ids)
	return ids, nil
}

// Truncate rolls the cache back so it covers only strings with id < hi —
// the inverse of absorb for a failed batch run. Suffix lists are appended
// in ascending string-id order, so every ref of a dropped string sits at
// the tail of its bucket's list; those tails are trimmed, buckets left
// empty are deleted, and the cached subtree of every trimmed bucket is
// discarded (it was built over suffixes that no longer exist — the next
// batch run rebuilds it from the restored list). Subtrees of untouched
// buckets stay valid verbatim. A no-op when hi >= the scanned high mark.
func (bc *BucketCache) Truncate(hi seq.StringID) {
	if hi >= bc.scanned {
		return
	}
	for b, refs := range bc.byBucket {
		cut := sort.Search(len(refs), func(i int) bool { return refs[i].SID >= hi })
		if cut == len(refs) {
			continue
		}
		delete(bc.trees, b)
		if cut == 0 {
			delete(bc.byBucket, b)
			continue
		}
		bc.byBucket[b] = refs[:cut:cut]
	}
	bc.scanned = hi
}

// Warm scans every string of set into the cache without building any
// subtrees — the state a resumed session needs so that its next batch
// rebuilds only the buckets the batch touches. Subtrees are built lazily:
// a bucket that never sees a fresh suffix never needs one.
func (bc *BucketCache) Warm(set *seq.SetS, w int) error {
	_, err := bc.absorb(set, w, seq.StringID(set.NumStrings()))
	return err
}

// histogram derives the global bucket histogram from the cached lists.
func (bc *BucketCache) histogram(w int) []int64 {
	hist := make([]int64, suffix.NumBuckets(w))
	for b, refs := range bc.byBucket {
		hist[b] = int64(len(refs))
	}
	return hist
}

// forestBuild is the outcome of the sequential partition+construct phases.
type forestBuild struct {
	forest    []*suffix.Tree
	hist      []int64
	partition time.Duration
	construct time.Duration
}

// buildSequentialForest runs the partition and construction phases for the
// sequential engine, honoring the incremental knobs:
//
//   - no Cache, FreshGen == 0: the one-shot path — collect everything, build
//     every non-empty bucket.
//   - no Cache, FreshGen > 0: rescan, but assign only the buckets the fresh
//     generations touch (AssignFresh); untouched buckets are skipped.
//   - Cache: scan only the strings the cache has not seen, rebuild exactly
//     the touched buckets, and leave the rest of the cached forest alone.
//     The forest handed to the generator is the touched subset — untouched
//     subtrees cannot contain a fresh pair.
//
// Incremental bucket counts land in st.Incremental.
func buildSequentialForest(set *seq.SetS, cfg Config, st *Stats, clk func() time.Duration) (*forestBuild, error) {
	fb := &forestBuild{}
	n2 := seq.StringID(set.NumStrings())
	t0 := clk()

	if bc := cfg.Cache; bc != nil {
		touched, err := bc.absorb(set, cfg.Window, n2)
		if err != nil {
			return nil, err
		}
		fb.hist = bc.histogram(cfg.Window)
		fb.partition = clk() - t0
		t1 := clk()
		bld := suffix.NewBuilder(set)
		for _, b := range touched {
			tr, err := bld.Build(b, bc.byBucket[b], cfg.Window)
			if errors.Is(err, suffix.ErrEmptyBucket) {
				continue
			}
			if err != nil {
				return nil, err
			}
			bc.trees[b] = tr
			fb.forest = append(fb.forest, tr)
		}
		fb.construct = clk() - t1
		st.Incremental.BucketsRebuilt = int64(len(fb.forest))
		st.Incremental.BucketsReused = nonEmptyBuckets(fb.hist) - int64(len(fb.forest))
		return fb, nil
	}

	hist := suffix.Histogram(set, cfg.Window, 0, n2)
	var owner []int32
	if cfg.FreshGen > 0 {
		freshHist := suffix.HistogramFrom(set, cfg.Window, cfg.FreshGen, 0, n2)
		owner = suffix.AssignFresh(hist, freshHist, 1)
	} else {
		owner = suffix.Assign(hist, 1)
	}
	byBucket := suffix.CollectOwned(set, cfg.Window, owner, 0, 0, n2)
	fb.hist = hist
	fb.partition = clk() - t0

	t1 := clk()
	forest, err := suffix.BuildForest(set, byBucket, cfg.Window)
	if err != nil {
		return nil, err
	}
	fb.forest = forest
	fb.construct = clk() - t1
	if cfg.FreshGen > 0 {
		st.Incremental.BucketsRebuilt = int64(len(forest))
		st.Incremental.BucketsReused = nonEmptyBuckets(hist) - int64(len(forest))
	}
	return fb, nil
}

func nonEmptyBuckets(hist []int64) int64 {
	var n int64
	for _, h := range hist {
		if h > 0 {
			n++
		}
	}
	return n
}

// CheckpointFromLabels builds a checkpoint snapshot from a finished
// partition — what a session persists between batch runs, reusing the
// PACECKPT machinery (atomic write, CRC, run fingerprint).
func CheckpointFromLabels(numESTs, window, psi int, labels []int32) (*Checkpoint, error) {
	if len(labels) != numESTs {
		return nil, fmt.Errorf("cluster: %d labels for %d ESTs", len(labels), numESTs)
	}
	uf := unionfind.New(numESTs)
	merges, err := seedClusters(legacyMerger{uf}, labels, numESTs)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		NumESTs: numESTs, Window: window, Psi: psi,
		Merges: merges, UF: uf,
	}, nil
}

// RunSet clusters a prebuilt SetS. It is Run for callers that manage the
// sequence set themselves — a session appending generations between runs —
// and the entry point that understands Config.FreshGen / Config.Cache.
func RunSet(set *seq.SetS, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(cfg.FreshGen) >= set.NumGenerations() {
		return nil, fmt.Errorf("cluster: FreshGen %d out of range for %d generations", cfg.FreshGen, set.NumGenerations())
	}
	if cfg.Cache != nil && cfg.FreshGen == 0 && cfg.Cache.scanned > 0 {
		// A full run over a warm cache would hand the generator only the
		// touched buckets and silently drop every pair in the rest.
		return nil, fmt.Errorf("cluster: full run (FreshGen == 0) over a non-empty cache; set FreshGen to the batch generation")
	}
	if cfg.MP.Procs == 1 {
		return runSequential(set, cfg)
	}
	return runParallel(set, cfg)
}
