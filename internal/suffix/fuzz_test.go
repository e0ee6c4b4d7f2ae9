package suffix

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"pace/internal/seq"
	"pace/internal/testutil"
)

// buildSeeds are the pinned FuzzBuild inputs: the window byte
// (w = 1 + b%4), then a testutil.DecodeESTs record stream.
var buildSeeds = [][]byte{
	// w=3: an EST, an identical copy and its reverse complement.
	slices.Concat([]byte{2}, testutil.ESTRecord(40, 1), []byte{1, 0, 2, 0}),
	// w=4: strings shorter than w next to a contained string.
	slices.Concat([]byte{3}, testutil.ESTRecord(2, 2), testutil.ESTRecord(50, 3), []byte{3, 1, 10, 20}),
	// w=1: a homopolymer run and its copies (deep identical suffixes).
	slices.Concat([]byte{0}, []byte{0, 39, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 0, 3, 0, 5, 9}),
	// w=2: overlaps, one against a mate.
	slices.Concat([]byte{1}, testutil.ESTRecord(30, 4), testutil.ESTRecord(30, 5), []byte{4, 0, 1, 10, 20, 2, 2, 4, 3, 0, 5, 15}),
}

// FuzzBuild checks subtree construction against a naive sort on arbitrary
// small EST sets. For every bucket, in collection order and reversed:
// Verify passes, the preorder leaves are the bucket's suffixes in sorted
// order (a suffix before its extensions, identical suffixes in input
// order), and the caller's slice is left untouched. One Builder reused over
// all buckets, by growing and then shrinking size, must produce exactly the
// trees of fresh Build calls. Plain `go test` runs the pinned seeds.
func FuzzBuild(f *testing.F) {
	for _, s := range buildSeeds {
		f.Add(s)
	}
	f.Fuzz(checkBuild)
}

func checkBuild(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	w := 1 + int(data[0])%4
	ests := testutil.DecodeESTs(data[1:])
	if len(ests) == 0 {
		return
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	hi := seq.StringID(set.NumStrings())
	byBucket := CollectOwned(set, w, Assign(Histogram(set, w, 0, hi), 1), 0, 0, hi)

	fresh := map[int]*Tree{}
	for id, refs := range byBucket {
		rev := slices.Clone(refs)
		slices.Reverse(rev)
		for i, in := range [][]SuffixRef{refs, rev} {
			keep := slices.Clone(in)
			tr, err := Build(set, id, in, w)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(in, keep) {
				t.Fatalf("bucket %d: Build permuted the caller's slice", id)
			}
			if err := tr.Verify(set); err != nil {
				t.Fatalf("bucket %d: %v", id, err)
			}
			if got, want := preorderLeaves(tr), naiveSorted(set, in); !slices.Equal(got, want) {
				t.Fatalf("bucket %d: preorder leaves %v, want %v", id, got, want)
			}
			if i == 0 {
				fresh[id] = tr
			}
		}
	}

	// Smallest to largest grows the scratch; largest back to smallest reuses
	// scratch that still holds a bigger bucket's data.
	ids := SortedBucketIDs(byBucket)
	sort.SliceStable(ids, func(i, j int) bool { return len(byBucket[ids[i]]) < len(byBucket[ids[j]]) })
	down := slices.Clone(ids)
	slices.Reverse(down)
	b := NewBuilder(set)
	for _, id := range append(ids, down...) {
		tr, err := b.Build(id, byBucket[id], w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, fresh[id]) {
			t.Fatalf("bucket %d: reused Builder built %+v, fresh Build %+v", id, tr.Nodes, fresh[id].Nodes)
		}
	}
}

// preorderLeaves lists a tree's leaves in preorder.
func preorderLeaves(t *Tree) []SuffixRef {
	var out []SuffixRef
	for i, n := range t.Nodes {
		if t.IsLeaf(int32(i)) {
			out = append(out, SuffixRef{SID: n.SID, Pos: n.Pos})
		}
	}
	return out
}

// naiveSorted sorts a copy of refs by suffix, a proper prefix before its
// extensions and identical suffixes in input order.
func naiveSorted(set *seq.SetS, refs []SuffixRef) []SuffixRef {
	out := slices.Clone(refs)
	slices.SortStableFunc(out, func(a, b SuffixRef) int {
		return slices.Compare(set.Suffix(a.SID, a.Pos), set.Suffix(b.SID, b.Pos))
	})
	return out
}
