package pairgen

import (
	"math"
	"slices"
	"testing"

	"pace/internal/seq"
	"pace/internal/testutil"
)

// generateSeeds are the pinned FuzzGenerate inputs. Each starts with the
// window byte (w = 1 + b%6) and the threshold byte (ψ = w + b%10); the rest
// is a testutil.DecodeESTs record stream.
var generateSeeds = [][]byte{
	// w=4, ψ=8: an EST, an identical copy and its reverse complement.
	slices.Concat([]byte{3, 4}, testutil.ESTRecord(48, 1), []byte{1, 0, 2, 0}),
	// w=6, ψ=6: strings shorter than w next to a long one and its copy.
	slices.Concat([]byte{5, 0}, testutil.ESTRecord(3, 2), testutil.ESTRecord(5, 3), testutil.ESTRecord(60, 4), []byte{1, 2}),
	// w=3, ψ=10: a contained EST and a contained reverse complement.
	slices.Concat([]byte{2, 7}, testutil.ESTRecord(64, 5), []byte{3, 0, 10, 30, 2, 1}, []byte{3, 2, 4, 20}),
	// w=5, ψ=12: a chain of overlaps, one of them against a mate.
	slices.Concat([]byte{4, 7}, testutil.ESTRecord(50, 6), testutil.ESTRecord(50, 7), []byte{4, 0, 1, 25, 30, 2, 2, 4, 3, 0, 10, 40}),
	// w=1, ψ=1: every shared base is a promising pair.
	slices.Concat([]byte{0, 0}, testutil.ESTRecord(6, 8), testutil.ESTRecord(6, 9), []byte{2, 0}),
	// w=3, ψ=6: X, Z, XX, XXZ and a copy of XX, with X starting with G and
	// Z with T: under the node for X, the leaf XZ follows the branch that
	// holds XXZ, so the leaf's string is a duplicate to drop.
	slices.Concat([]byte{2, 3}, testutil.ESTRecord(12, 10), testutil.ESTRecord(20, 15),
		[]byte{4, 0, 0, 0, 11}, []byte{4, 2, 1, 0, 19}, []byte{1, 2}),
	// w=2, ψ=4: duplicated short repeats (many identical suffixes).
	slices.Concat([]byte{1, 2}, []byte{0, 15, 0, 0, 0, 0}, []byte{1, 0, 1, 0, 3, 0, 2, 9}),
}

// FuzzGenerate generalises TestAgainstBruteForce to arbitrary small EST
// sets: the distinct canonical pairs emitted must be exactly the string
// pairs whose longest common substring is at least ψ, every anchor must be a
// maximal common substring, a string pair may be emitted at most once per
// distinct maximal common substring (Corollary 2) and the stream must come
// out in non-increasing match length. Plain `go test` runs the pinned seeds.
func FuzzGenerate(f *testing.F) {
	for _, s := range generateSeeds {
		f.Add(s)
	}
	f.Fuzz(checkGenerate)
}

func checkGenerate(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	w := 1 + int(data[0])%6
	psi := w + int(data[1])%10
	ests := testutil.DecodeESTs(data[2:])
	if len(ests) == 0 {
		return
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(set, buildForest(t, set, w), psi)
	if err != nil {
		t.Fatal(err)
	}
	pairs := drain(g, 7)
	if got := g.Stats().Generated; got != int64(len(pairs)) {
		t.Fatalf("Stats.Generated %d, emitted %d", got, len(pairs))
	}
	type emission struct {
		s1, s2 seq.StringID
		label  string
	}
	got := map[[2]seq.StringID]bool{}
	seen := map[emission]bool{}
	last := int32(math.MaxInt32)
	for _, p := range pairs {
		e := emission{p.S1, p.S2, set.Str(p.S1)[p.Pos1 : p.Pos1+p.MatchLen].String()}
		if seen[e] {
			t.Fatalf("pair emitted twice for one common substring: %+v", p)
		}
		seen[e] = true
		if p.MatchLen > last {
			t.Fatalf("match length %d after %d", p.MatchLen, last)
		}
		last = p.MatchLen
		if p.S1.IsReverse() || p.S1.EST() >= p.S2.EST() {
			t.Fatalf("pair not canonical: %+v", p)
		}
		checkAnchor(t, set, int32(psi), p)
		got[[2]seq.StringID{p.S1, p.S2}] = true
	}
	want := bruteForcePairs(set, psi)
	for k := range want {
		if !got[k] {
			t.Fatalf("w=%d ψ=%d: missing pair %v", w, psi, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Fatalf("w=%d ψ=%d: spurious pair %v", w, psi, k)
		}
	}
}
