package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pace"
	"pace/internal/seq"
	"pace/internal/serve"
)

// minCoverage is the share of a replay's wall its layer self times must
// cover for the layer table to be trusted.
const minCoverage = 0.95

// layerMetrics are the traced run's per-layer values by metric name.
type layerMetrics map[string]float64

// addTimes sets <layer>_s to each layer's self time.
func (m layerMetrics) addTimes(layers map[string]layerTime, names ...string) {
	for _, n := range names {
		m[n+"_s"] = layers[n].self.Seconds()
	}
}

func (m layerMetrics) addGC(g gcDelta) {
	m["gc.cycles"] = float64(g.cycles)
	m["gc.pause_s"] = g.pause.Seconds()
	m["alloc_mb"] = g.allocMB
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// addReplay sets the counts and ratios a replay measured, and returns the
// report lines giving each ratio with its base.
func (m layerMetrics) addReplay(r *replayer, c map[string]int64, layers map[string]layerTime) string {
	const mb = 1 << 20
	m.addTimes(layers, "seq.parse", "suffix.bucket", "suffix.build", "pairgen.setup",
		"pairgen.next", "unionfind.same", "unionfind.union", "align.extend")
	m["suffix.alloc_mb"] = float64(r.n.suffixAlloc) / mb
	m["pairgen.alloc_mb"] = float64(r.n.pairgenAlloc) / mb
	for _, k := range []string{"suffix.suffixes", "suffix.nodes", "suffix.trees",
		"pairgen.generated", "pairgen.nodes_processed", "align.pairs", "unionfind.merges"} {
		m[k] = float64(c[k])
	}
	m["pairgen.discarded_stale"] = float64(r.n.stale)
	m["pairgen.emissions_per_distinct"] = ratio(c["pairgen.generated"], c["pairgen.distinct"])
	m["filter.skip_ratio"] = ratio(c["filter.skipped"], c["pairgen.generated"])
	m["align.accept_ratio"] = ratio(c["align.accepted"], c["align.pairs"])
	m["cluster.aligned_per_merge"] = ratio(c["align.pairs"], c["unionfind.merges"])
	if c["align.pairs"] > 0 {
		m["align.us_per_pair"] = 1e6 * m["align.extend_s"] / float64(c["align.pairs"])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  counts: suffix.suffixes=%d suffix.nodes=%d suffix.trees=%d pairgen.nodes_processed=%d pairgen.discarded_stale=%d\n",
		c["suffix.suffixes"], c["suffix.nodes"], c["suffix.trees"], c["pairgen.nodes_processed"], r.n.stale)
	fmt.Fprintf(&b, "  pairgen.emissions_per_distinct = %.4f  (%d generated / %d distinct EST pairs)\n",
		m["pairgen.emissions_per_distinct"], c["pairgen.generated"], c["pairgen.distinct"])
	fmt.Fprintf(&b, "  filter.skip_ratio = %.4f  (%d skipped / %d generated)\n",
		m["filter.skip_ratio"], c["filter.skipped"], c["pairgen.generated"])
	fmt.Fprintf(&b, "  align.accept_ratio = %.4f  (%d accepted / %d aligned)\n",
		m["align.accept_ratio"], c["align.accepted"], c["align.pairs"])
	fmt.Fprintf(&b, "  align.us_per_pair = %.2f  (align.extend_s %.4f / %d aligned)\n",
		m["align.us_per_pair"], m["align.extend_s"], c["align.pairs"])
	fmt.Fprintf(&b, "  cluster.aligned_per_merge = %.4f  (%d aligned / %d merges)\n",
		m["cluster.aligned_per_merge"], c["align.pairs"], c["unionfind.merges"])
	fmt.Fprintf(&b, "  suffix.alloc_mb = %.1f  pairgen.alloc_mb = %.1f\n", m["suffix.alloc_mb"], m["pairgen.alloc_mb"])
	return b.String()
}

// checkExpected compares counts against the values recorded for the
// default seed; only keys recorded and measured are compared.
func checkExpected(cfg *config, w *workload, seed int64, got map[string]int64) error {
	if seed != cfg.DefaultSeed {
		return nil
	}
	for k, want := range w.Expected.Counts {
		if g, ok := got[k]; ok && g != want {
			return fmt.Errorf("%s = %d, workloads.json records %d for seed %d", k, g, want, seed)
		}
	}
	return nil
}

// traceRun is the traced run of one workload: it measures every layer's
// self time and work, cross-checks the replay against the engine, prints
// the layer table and writes the span file.
func traceRun(cfg *config, w *workload, seed int64) (*childResult, error) {
	b, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	run := fmt.Sprintf("%s-s%d-%d", w.Name, seed, os.Getpid())
	spanFile := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-s%d.json", w.Name, seed))
	res := &childResult{}
	var report string
	var recs []*recorder
	m := layerMetrics{}
	switch {
	case w.Processors > 1:
		report, recs, err = traceParallel(w, b, run, m, res)
	case w.Batches > 1:
		report, recs, err = traceIngest(cfg, w, b, seed, run, m, res)
	default:
		report, recs, err = traceOneshot(cfg, w, b, seed, run, m, res)
	}
	if err != nil {
		res.fail("%v", err)
		return res, nil
	}
	if err := writeSpans(spanFile, recs...); err != nil {
		return nil, err
	}
	res.Layers = m
	res.Report = fmt.Sprintf("layer report: workload %s, seed %d, run %s\n%sspans: %s\n", w.Name, seed, run, report, spanFile)
	return res, nil
}

// traceOneshot runs the engine untraced, then the traced replay of the same
// input, and requires the two to agree exactly.
func traceOneshot(cfg *config, w *workload, b *pace.Benchmark, seed int64, run string, m layerMetrics, res *childResult) (string, []*recorder, error) {
	res.Attempted = 2
	t0 := time.Now()
	cl, err := pace.Cluster(b.ESTs, w.options())
	engineWall := time.Since(t0)
	if err != nil {
		return "", nil, fmt.Errorf("engine: %w", err)
	}

	rec := newRecorder(run)
	ms := memStats()
	root := rec.begin("replay")
	rp, err := newReplayer(rec, w.options())
	if err == nil {
		_, err = rp.batch(b.ESTs)
	}
	rec.end(root)
	if err != nil {
		return "", nil, fmt.Errorf("replay: %w", err)
	}
	m.addGC(gcSince(ms))
	layers, wall := rec.selfTimes()
	c := rp.counts()
	if err := crossCheck("replay", c, clusterCounts(cl.Stats, 1), rp.labels(), canonical(cl.Labels)); err != nil {
		return "", nil, err
	}
	if err := checkExpected(cfg, w, seed, c); err != nil {
		return "", nil, err
	}
	table, cov := layerTable("replay (sequential pipeline)", layers, wall)
	if cov < minCoverage {
		return "", nil, fmt.Errorf("replay layer self times cover %.1f%% of its wall, want >= %.0f%%", 100*cov, 100*minCoverage)
	}
	ratios := m.addReplay(rp, c, layers)
	m["trace.coverage"] = cov
	m["trace.overhead_s"] = (wall - engineWall).Seconds()
	head := fmt.Sprintf("engine (untraced) wall %.4f s; traced replay wall %.4f s; tracing overhead %.4f s\n",
		engineWall.Seconds(), wall.Seconds(), m["trace.overhead_s"])
	return head + table + ratios + "  cross-check: replay counts and partition equal the engine's\n", []*recorder{rec}, nil
}

// traceParallel reads the per-layer numbers of a real parallel run from its
// public Stats, and checks its partition and generated pairs against the
// sequential engine.
func traceParallel(w *workload, b *pace.Benchmark, run string, m layerMetrics, res *childResult) (string, []*recorder, error) {
	res.Attempted = 2
	rec := newRecorder(run)
	root := rec.begin("parallel")
	end := rec.scope("seq.parse")
	for i, e := range b.ESTs {
		if _, err := seq.Parse(e); err != nil {
			return "", nil, fmt.Errorf("EST %d: %w", i, err)
		}
	}
	end()
	ms := memStats()
	end = rec.scope("cluster.run")
	cl, err := pace.Cluster(b.ESTs, w.options())
	end()
	rec.end(root)
	if err != nil {
		return "", nil, fmt.Errorf("engine: %w", err)
	}
	m.addGC(gcSince(ms))
	ref, err := pace.Cluster(b.ESTs, pace.DefaultOptions())
	if err != nil {
		return "", nil, fmt.Errorf("sequential reference: %w", err)
	}
	if err := crossCheck("parallel engine", clusterCounts(cl.Stats, w.Processors), clusterCounts(ref.Stats, 1),
		canonical(cl.Labels), canonical(ref.Labels)); err != nil {
		return "", nil, err
	}

	layers, wall := rec.selfTimes()
	st := cl.Stats
	var bucketT, buildT, setupT, alignT, slaveWaitMax time.Duration
	var msgs int64
	for _, r := range st.PerRank {
		msgs += r.MsgsSent
		if r.Role != "slave" {
			continue
		}
		bucketT += r.Partition
		buildT += r.Construct
		setupT += r.Sort
		alignT += r.Align
		slaveWaitMax = max(slaveWaitMax, r.RecvWait)
	}
	master := masterRank(st)
	m["seq.parse_s"] = layers["seq.parse"].self.Seconds()
	m["suffix.bucket_s"] = bucketT.Seconds()
	m["suffix.build_s"] = buildT.Seconds()
	m["pairgen.setup_s"] = setupT.Seconds()
	m["align.extend_s"] = alignT.Seconds()
	m["pairgen.generated"] = float64(st.PairsGenerated)
	m["unionfind.merges"] = float64(st.Merges)
	m["filter.skip_ratio"] = ratio(st.PairsSkipped, st.PairsGenerated)
	m["align.pairs"] = float64(st.PairsProcessed)
	m["align.accept_ratio"] = ratio(st.PairsAccepted, st.PairsProcessed)
	if st.PairsProcessed > 0 {
		m["align.us_per_pair"] = 1e6 * alignT.Seconds() / float64(st.PairsProcessed)
	}
	m["cluster.aligned_per_merge"] = ratio(st.PairsProcessed, st.Merges)
	m["cluster.master_busy_s"] = st.MasterBusy.Seconds()
	m["cluster.master_recv_wait_s"] = st.MasterRecvWait.Seconds()
	m["cluster.workbuf_high_water"] = float64(st.WorkBufHighWater)
	m["mp.bytes_to_master"] = float64(master.BytesRecv)
	m["mp.bytes_from_master"] = float64(master.BytesSent)
	m["mp.msgs"] = float64(msgs)
	m["mp.slave_recv_wait_max_s"] = slaveWaitMax.Seconds()

	var b2 strings.Builder
	fmt.Fprintf(&b2, "parallel engine, %d ranks: wall %.4f s (Cluster call %.4f s); per-layer times are summed over slave ranks from Stats.PerRank\n",
		w.Processors, wall.Seconds(), layers["cluster.run"].self.Seconds())
	fmt.Fprintf(&b2, "  %-28s %12s %8s\n", "layer", "rank_s", "of wall")
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"seq.parse_s", layers["seq.parse"].self}, {"suffix.bucket_s", bucketT}, {"suffix.build_s", buildT},
		{"pairgen.setup_s", setupT}, {"align.extend_s", alignT},
		{"cluster.master_busy_s", st.MasterBusy}, {"cluster.master_recv_wait_s", st.MasterRecvWait},
		{"mp.slave_recv_wait_max_s", slaveWaitMax},
	} {
		fmt.Fprintf(&b2, "  %-28s %12.4f %7.1f%%\n", row.name, row.d.Seconds(), 100*share(row.d, wall))
	}
	fmt.Fprintf(&b2, "  counts: pairgen.generated=%d align.pairs=%d (%.2fx the sequential %d) unionfind.merges=%d cluster.workbuf_high_water=%d\n",
		st.PairsGenerated, st.PairsProcessed, ratio(st.PairsProcessed, ref.Stats.PairsProcessed), ref.Stats.PairsProcessed, st.Merges, st.WorkBufHighWater)
	fmt.Fprintf(&b2, "  mp.bytes_to_master=%d mp.bytes_from_master=%d mp.msgs=%d\n", master.BytesRecv, master.BytesSent, msgs)
	fmt.Fprintf(&b2, "  filter.skip_ratio = %.4f  (%d skipped / %d generated)\n", m["filter.skip_ratio"], st.PairsSkipped, st.PairsGenerated)
	fmt.Fprintf(&b2, "  align.accept_ratio = %.4f  (%d accepted / %d aligned)\n", m["align.accept_ratio"], st.PairsAccepted, st.PairsProcessed)
	fmt.Fprintf(&b2, "  cluster.aligned_per_merge = %.4f  (%d aligned / %d merges)\n", m["cluster.aligned_per_merge"], st.PairsProcessed, st.Merges)
	b2.WriteString("  cross-check: partition and generated pairs equal the sequential engine's\n")
	return b2.String(), []*recorder{rec}, nil
}

// traceIngest traces the paced session three ways: each HTTP request
// through the handler; the same batches through Session.AddContext,
// serve.SaveState and Session.Labels directly; and each batch's layers
// through the fresh-generation replay. All three must reach the sequential
// engine's partition of every EST, and the replay's per-batch counters must
// equal the handler's batch replies.
func traceIngest(cfg *config, w *workload, b *pace.Benchmark, seed int64, run string, m layerMetrics, res *childResult) (string, []*recorder, error) {
	ref, err := pace.Cluster(b.ESTs, pace.DefaultOptions())
	if err != nil {
		return "", nil, fmt.Errorf("sequential reference: %w", err)
	}
	want := canonical(ref.Labels)
	bodies, sizes := ingestInputs(w, b.ESTs)

	// Pass 1: the handler, one span per request.
	h, dir, err := newIngestServer(w, "trace-http")
	if err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(dir)
	httpRec := newRecorder(run + "-http")
	ms := memStats()
	root := httpRec.begin("ingest.http")
	s := runIngest(h, bodies, sizes, httpRec.scope)
	httpRec.end(root)
	m.addGC(gcSince(ms))
	res.Attempted = s.requests + 2
	if s.failed > 0 {
		return "", nil, fmt.Errorf("ingest requests failed: %s", strings.Join(s.errors, "; "))
	}
	if !samePartition(canonical(s.labels), want) {
		return "", nil, fmt.Errorf("final labels differ from the one-shot partition")
	}
	inc := incCounts(s.replies)

	// Pass 2: the request path split into its calls.
	dirDirect, err := stateDir("trace-direct")
	if err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(dirDirect)
	directRec := newRecorder(run + "-direct")
	root = directRec.begin("ingest.direct")
	direct, err := directSession(w, directRec, bodies, dirDirect)
	directRec.end(root)
	if err != nil {
		return "", nil, fmt.Errorf("direct session: %w", err)
	}
	if !samePartition(canonical(direct.Labels()), want) {
		return "", nil, fmt.Errorf("direct session labels differ from the one-shot partition")
	}

	// Pass 3: the layers of every batch.
	replayRec := newRecorder(run + "-replay")
	root = replayRec.begin("ingest.replay")
	rp, err := newReplayer(replayRec, w.options())
	var perBatch []batchCounts
	for i := 0; err == nil && i < w.Batches; i++ {
		lo, hi := w.batchBounds(i, len(b.ESTs))
		var bc batchCounts
		bc, err = rp.batch(b.ESTs[lo:hi])
		perBatch = append(perBatch, bc)
	}
	replayRec.end(root)
	if err != nil {
		return "", nil, fmt.Errorf("replay: %w", err)
	}
	for i, bc := range perBatch {
		r := s.replies[i]
		got := batchCounts{r.PairsGenerated, r.BucketsRebuilt, r.BucketsReused, r.FreshPairs, r.StaleSuppressed}
		if bc != got {
			return "", nil, fmt.Errorf("replay batch %d counters %+v, handler replied %+v", i, bc, got)
		}
	}
	c := rp.counts()
	for k, v := range inc {
		c[k] = v
	}
	if err := crossCheck("ingest replay", c, map[string]int64{"pairgen.generated": ref.Stats.PairsGenerated},
		rp.labels(), want); err != nil {
		return "", nil, err
	}
	if err := checkExpected(cfg, w, seed, c); err != nil {
		return "", nil, err
	}

	httpLayers, httpWall := httpRec.selfTimes()
	directLayers, directWall := directRec.selfTimes()
	replayLayers, replayWall := replayRec.selfTimes()
	httpTable, _ := layerTable("pass 1: HTTP requests through the paced handler", httpLayers, httpWall)
	directTable, directCov := layerTable("pass 2: Session.AddContext, serve.SaveState, Session.Labels", directLayers, directWall)
	replayTable, replayCov := layerTable("pass 3: per-batch layer replay (fresh-generation entry points)", replayLayers, replayWall)
	if directCov < minCoverage || replayCov < minCoverage {
		return "", nil, fmt.Errorf("layer self times cover %.1f%% (direct) and %.1f%% (replay) of their walls, want >= %.0f%%",
			100*directCov, 100*replayCov, 100*minCoverage)
	}
	ratios := m.addReplay(rp, c, replayLayers)
	m["seq.parse_s"] = directLayers["seq.parse"].self.Seconds()
	m.addTimes(directLayers, "session.add", "serve.save")
	m.addTimes(httpLayers, "serve.batch_request", "serve.labels")
	for _, k := range []string{"inc.buckets_rebuilt", "inc.buckets_reused", "inc.stale_suppressed", "inc.fresh_pairs"} {
		m[k] = float64(inc[k])
	}
	m["trace.coverage"] = replayCov
	m["trace.overhead_s"] = (replayWall - directLayers["session.add"].self).Seconds()
	head := fmt.Sprintf("tracing overhead %.4f s (replay wall minus the untraced Session.AddContext time for the same batches)\n", m["trace.overhead_s"])
	incLine := fmt.Sprintf("  counts: inc.buckets_rebuilt=%d inc.buckets_reused=%d inc.fresh_pairs=%d inc.stale_suppressed=%d over %d batches\n",
		inc["inc.buckets_rebuilt"], inc["inc.buckets_reused"], inc["inc.fresh_pairs"], inc["inc.stale_suppressed"], w.Batches)
	check := "  cross-check: replay per-batch counters equal the handler's replies; all three passes reach the one-shot partition\n"
	return head + httpTable + directTable + replayTable + ratios + incLine + check, []*recorder{httpRec, directRec, replayRec}, nil
}

// directSession ingests the batches through the session API, spanning the
// FASTA decode, the incremental run, the durable save and the labels read.
func directSession(w *workload, rec *recorder, bodies [][]byte, dir string) (*pace.Session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sess, err := pace.NewSession(w.options())
	if err != nil {
		return nil, err
	}
	var all []pace.Record
	for _, body := range bodies {
		end := rec.scope("seq.parse")
		recs, err := pace.ReadFASTA(bytes.NewReader(body))
		seqs := pace.Sequences(recs)
		end()
		if err != nil {
			return nil, err
		}
		end = rec.scope("session.add")
		_, err = sess.AddContext(context.Background(), seqs)
		end()
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
		end = rec.scope("serve.save")
		err = serve.SaveState(pace.OSFS(), dir, sess, all)
		end()
		if err != nil {
			return nil, err
		}
		end = rec.scope("session.labels")
		_ = sess.Labels()
		end()
	}
	return sess, nil
}
