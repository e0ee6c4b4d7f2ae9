package pairgen

import (
	"testing"

	"pace/internal/seq"
	"pace/internal/simulate"
	"pace/internal/suffix"
	"pace/internal/telemetry"
)

// The benchmarks run on the end-to-end benchmark's oneshot shape: 600
// simulated ESTs (simulator defaults, seed 3), w=8, ψ=20, drained in the
// engine's default batch of 60 pairs.
const (
	benchESTs  = 600
	benchW     = 8
	benchPsi   = 20
	benchBatch = 60
)

// benchWorkload builds the simulated EST set and its forest once; the
// benchmarks re-create only the generator.
func benchWorkload(b *testing.B) (*seq.SetS, []*suffix.Tree) {
	b.Helper()
	cfg := simulate.DefaultConfig(benchESTs)
	cfg.Seed = 3
	bm, err := simulate.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	set, err := seq.NewSetS(bm.ESTs)
	if err != nil {
		b.Fatal(err)
	}
	return set, buildForest(b, set, benchW)
}

// newBenchGen builds a generator over the workload with obs attached.
func newBenchGen(b *testing.B, set *seq.SetS, forest []*suffix.Tree, obs Observer) *Generator {
	b.Helper()
	gen, err := New(set, forest, benchPsi)
	if err != nil {
		b.Fatal(err)
	}
	gen.Observe(obs)
	return gen
}

// drainAll pulls every pair through Next in engine-sized batches.
func drainAll(gen *Generator, buf []Pair) int {
	n := 0
	for {
		buf = gen.Next(buf[:0], benchBatch)
		if len(buf) == 0 {
			return n
		}
		n += len(buf)
	}
}

// benchNext times only the Next loop: generator set-up runs with the timer
// stopped.
func benchNext(b *testing.B, obs Observer) {
	set, forest := benchWorkload(b)
	buf := make([]Pair, 0, benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	pairs := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gen := newBenchGen(b, set, forest, obs)
		b.StartTimer()
		pairs = drainAll(gen, buf)
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}

// BenchmarkNext is the disabled-sink configuration: the Observer hooks are
// present in the code but every probe pointer is nil, so the per-pair cost
// is a pointer test. This is the default production path; compare against
// BenchmarkNextInstrumented to see the cost of attaching live probes.
func BenchmarkNext(b *testing.B) { benchNext(b, Observer{}) }

// BenchmarkNextInstrumented attaches live registry probes (histograms +
// counter, all atomic) to the same workload.
func BenchmarkNextInstrumented(b *testing.B) {
	reg := telemetry.NewRegistry()
	benchNext(b, Observer{
		MCSLen:    reg.Histogram("pace_pair_mcs_length", telemetry.ExpBounds(12, 2, 8)),
		BatchNs:   reg.Histogram("pace_pairgen_batch_ns", telemetry.ExpBounds(1000, 4, 12)),
		Generated: reg.Counter("pace_pairs_generated_total"),
	})
}

// BenchmarkGenerate times the whole generation: set-up (lset slabs and the
// depth-ordered node list) plus the drain.
func BenchmarkGenerate(b *testing.B) {
	set, forest := benchWorkload(b)
	buf := make([]Pair, 0, benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	pairs := 0
	for i := 0; i < b.N; i++ {
		pairs = drainAll(newBenchGen(b, set, forest, Observer{}), buf)
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}
