package testutil

import (
	"math/rand"

	"pace/internal/seq"
)

// Limits of the EST sets DecodeESTs builds: small enough for quadratic
// brute-force oracles to run on every fuzz input.
const (
	maxFuzzESTs   = 8
	maxFuzzESTLen = 160
)

// DecodeESTs turns a fuzz input into a small EST set whose strings relate to
// each other the way real ESTs do. The input is a sequence of records, each
// an op byte followed by its operands; a missing operand reads as 0:
//
//	op%5 == 0  a new EST of 1+L%64 bases (operand L), four bases per
//	           following byte, two bits each
//	op%5 == 1  a copy of EST k
//	op%5 == 2  the reverse complement of EST k
//	op%5 == 3  a substring of EST k (operands k, start, length) — contained
//	op%5 == 4  a suffix of EST k followed by a prefix of EST j (operands k,
//	           j, start, length) — an overlap
//
// EST indices are taken modulo the ESTs decoded so far; ops 1–4 before the
// first EST read as op 0. Decoding stops after 8 ESTs or at the end of the
// input, and ESTs are capped at 160 bases.
func DecodeESTs(data []byte) []seq.Sequence {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var ests []seq.Sequence
	for len(data) > 0 && len(ests) < maxFuzzESTs {
		op := next() % 5
		if len(ests) == 0 {
			op = 0
		}
		pick := func() seq.Sequence { return ests[next()%len(ests)] }
		var s seq.Sequence
		switch op {
		case 0:
			n := 1 + next()%64
			s = make(seq.Sequence, n)
			var bits int
			for i := range s {
				if i%4 == 0 {
					bits = next()
				}
				s[i] = seq.Code(bits >> (2 * (i % 4)) & 3)
			}
		case 1:
			s = pick().Clone()
		case 2:
			s = pick().ReverseComplement()
		case 3:
			k := pick()
			start := next() % len(k)
			s = k[start : start+1+next()%(len(k)-start)].Clone()
		case 4:
			k, j := pick(), pick()
			s = append(k[next()%len(k):].Clone(), j[:1+next()%len(j)]...)
		}
		if len(s) > maxFuzzESTLen {
			s = s[:maxFuzzESTLen]
		}
		ests = append(ests, s)
	}
	return ests
}

// ESTRecord encodes a DecodeESTs record for a new EST of n pseudo-random
// bases (1 <= n <= 64) drawn from seed — a building block for pinned fuzz
// seeds.
func ESTRecord(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	rec := []byte{0, byte(n - 1)}
	for i := 0; i < (n+3)/4; i++ {
		rec = append(rec, byte(rng.Intn(256)))
	}
	return rec
}
