package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pace"
	"pace/internal/serve"
)

// childResult is what one child process reports to the orchestrator on its
// last line of standard output.
type childResult struct {
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	LastBatchS float64 `json:"last_batch_s"`
	OQ         float64 `json:"oq"`
	// Labels is the canonical partition the run produced.
	Labels    []int    `json:"labels,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Counts are deterministic work counters: they must repeat exactly.
	Counts map[string]int64 `json:"counts,omitempty"`
	// Varying are counters of real concurrency, reported as median and
	// spread instead of being checked for equality.
	Varying map[string]float64 `json:"varying,omitempty"`
	// Layers and Report come from the traced run only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Report string             `json:"report,omitempty"`
}

func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// childMain runs one role in its own process: "ref" computes the
// sequential engine's partition of all the workload's ESTs, "rep" runs one
// timed repetition, "setup" only the repetition's set-up, and "trace" the
// traced replay.
func childMain(args []string) int {
	fs := flag.NewFlagSet("pacebench child", flag.ContinueOnError)
	role := fs.String("role", "", "ref, rep or trace")
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 0, "input seed")
	spawned := fs.Int64("spawned", 0, "Unix nanoseconds at which the parent started this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		return 1
	}
	w, ok := cfg.Workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "pacebench: unknown workload %q\n", *name)
		return 2
	}
	start := time.Unix(0, *spawned)
	var res *childResult
	switch {
	case *role == "ref":
		res, err = refRun(w, *seed)
	case (*role == "rep" || *role == "setup") && w.Batches == 1:
		res, err = repCluster(w, *seed, start, *role == "setup")
	case *role == "rep" || *role == "setup":
		res, err = repIngest(w, *seed, start, *role == "setup")
	case *role == "trace":
		res, err = traceRun(cfg, w, *seed)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pacebench: %s %s: %v\n", *role, *name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		return 1
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// clusterCounts are the counters of a Cluster run that do not depend on
// scheduling: all of them for the sequential engine, and for the parallel
// engine the generated pairs (the same pairs in every schedule) and the
// merges (fixed by the partition).
func clusterCounts(st pace.Stats, processors int) map[string]int64 {
	c := map[string]int64{
		"pairgen.generated": st.PairsGenerated,
		"unionfind.merges":  st.Merges,
	}
	if processors == 1 {
		c["align.pairs"] = st.PairsProcessed
		c["align.accepted"] = st.PairsAccepted
		c["filter.skipped"] = st.PairsSkipped
	}
	return c
}

// refRun clusters all the workload's ESTs with the sequential engine: the
// partition every timed run must reproduce.
func refRun(w *workload, seed int64) (*childResult, error) {
	b, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	cl, err := pace.Cluster(b.ESTs, pace.DefaultOptions())
	if err != nil {
		return nil, err
	}
	q, err := pace.Evaluate(cl.Labels, b.Truth)
	if err != nil {
		return nil, err
	}
	counts := clusterCounts(cl.Stats, 1)
	if w.Batches > 1 {
		// Only the generated pairs carry over to an incremental session:
		// its batches together generate every pair exactly once.
		counts = map[string]int64{"pairgen.generated": cl.Stats.PairsGenerated}
	}
	return &childResult{
		Attempted: 1,
		OQ:        q.OQ,
		Labels:    canonical(cl.Labels),
		Counts:    counts,
	}, nil
}

// repCluster times one pace.Cluster call over the workload's ESTs. With
// setupOnly it returns once the call could be issued.
func repCluster(w *workload, seed int64, spawned time.Time, setupOnly bool) (*childResult, error) {
	b, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	opt := w.options()
	res := &childResult{Attempted: 1}

	res.SetupS = time.Since(spawned).Seconds()
	if setupOnly {
		return &childResult{SetupS: res.SetupS}, nil
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	cl, err := pace.Cluster(b.ESTs, opt)
	res.WallS = time.Since(t0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	res.LastBatchS = res.WallS

	if err != nil {
		res.fail("Cluster: %v", err)
		return res, nil
	}
	res.Labels = canonical(cl.Labels)
	q, err := pace.Evaluate(cl.Labels, b.Truth)
	if err != nil {
		return nil, err
	}
	res.OQ = q.OQ
	res.Counts = clusterCounts(cl.Stats, w.Processors)
	if w.Processors > 1 {
		res.Varying = map[string]float64{
			"align.pairs":        float64(cl.Stats.PairsProcessed),
			"mp.bytes_to_master": float64(masterRank(cl.Stats).BytesRecv),
		}
	}
	return res, nil
}

func masterRank(st pace.Stats) pace.RankStats {
	for _, r := range st.PerRank {
		if r.Role == "master" {
			return r
		}
	}
	return pace.RankStats{}
}

// stateDir is a fresh per-process session state directory under the
// checkout's build directory.
func stateDir(tag string) (string, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "state", fmt.Sprintf("%s-%d", tag, os.Getpid())))
	if err != nil {
		return "", err
	}
	return dir, os.RemoveAll(dir)
}

// readLabels parses a TSV labels reply and checks it lists ESTs 0..n-1 in
// ingest order.
func readLabels(body []byte, n int) ([]int, error) {
	labels := make([]int, 0, n)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		id, l, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("labels: malformed row %q", sc.Text())
		}
		if id != estID(len(labels)) {
			return nil, fmt.Errorf("labels: row %d is %q", len(labels), id)
		}
		v, err := strconv.Atoi(l)
		if err != nil {
			return nil, fmt.Errorf("labels: row %q: %w", sc.Text(), err)
		}
		labels = append(labels, v)
	}
	if len(labels) != n {
		return nil, fmt.Errorf("labels: %d rows for %d ESTs", len(labels), n)
	}
	return labels, nil
}

// ingestSession is one paced session driven through the handler: create,
// then each batch followed by a labels read. It keeps the final batch's
// round trip, the batch replies and the latest labels.
type ingestSession struct {
	requests  int
	failed    int
	errors    []string
	lastBatch time.Duration
	replies   []serve.BatchResult
	labels    []int
}

// runIngest issues the session's requests in a closed loop. span, when
// non-nil, brackets each request for the traced run. It stops at the first
// failed request: later requests of the same session cannot be judged.
func runIngest(h http.Handler, bodies [][]byte, sizes []int, span func(name string) func()) *ingestSession {
	s := &ingestSession{}
	planned := 1 + 2*len(bodies)
	req := func(name, method, path, ctype string, body []byte, want int) []byte {
		if span != nil {
			defer span(name)()
		}
		s.requests++
		r := httptest.NewRequest(method, path, bytes.NewReader(body))
		if ctype != "" {
			r.Header.Set("Content-Type", ctype)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, r)
		if rr.Code != want {
			s.errors = append(s.errors, fmt.Sprintf("%s %s: status %d: %s", method, path, rr.Code, strings.TrimSpace(rr.Body.String())))
			return nil
		}
		return rr.Body.Bytes()
	}
	// stop counts the failed request and every request not yet issued as
	// failed.
	stop := func() *ingestSession {
		s.failed = planned - s.requests + 1
		s.requests = planned
		return s
	}
	if req("serve.create", "POST", "/v1/sessions", "application/json", []byte(`{"id":"bench"}`), http.StatusCreated) == nil {
		return stop()
	}
	total := 0
	for i, body := range bodies {
		t0 := time.Now()
		out := req("serve.batch_request", "POST", "/v1/sessions/bench/batches", "text/x-fasta", body, http.StatusOK)
		s.lastBatch = time.Since(t0)
		if out == nil {
			return stop()
		}
		var br serve.BatchResult
		if err := json.Unmarshal(out, &br); err != nil {
			s.errors = append(s.errors, fmt.Sprintf("batch %d reply: %v", i, err))
			return stop()
		}
		s.replies = append(s.replies, br)
		total += sizes[i]
		out = req("serve.labels", "GET", "/v1/sessions/bench/labels?format=tsv", "", nil, http.StatusOK)
		if out == nil {
			return stop()
		}
		labels, err := readLabels(out, total)
		if err != nil {
			s.errors = append(s.errors, err.Error())
			return stop()
		}
		s.labels = labels
	}
	return s
}

// ingestInputs renders the workload's ESTs as its FASTA batch bodies.
func ingestInputs(w *workload, ests []string) ([][]byte, []int) {
	bodies := make([][]byte, w.Batches)
	sizes := make([]int, w.Batches)
	for i := range bodies {
		lo, hi := w.batchBounds(i, len(ests))
		bodies[i] = fastaBatch(ests, lo, hi)
		sizes[i] = hi - lo
	}
	return bodies, sizes
}

// incCounts sums the incremental counters of a session's batch replies.
func incCounts(replies []serve.BatchResult) map[string]int64 {
	c := map[string]int64{}
	for _, r := range replies {
		c["pairgen.generated"] += r.PairsGenerated
		c["inc.buckets_rebuilt"] += r.BucketsRebuilt
		c["inc.buckets_reused"] += r.BucketsReused
		c["inc.fresh_pairs"] += r.FreshPairs
		c["inc.stale_suppressed"] += r.StaleSuppressed
	}
	return c
}

// newIngestServer builds the paced manager and handler over a fresh state
// directory on local disk.
func newIngestServer(w *workload, tag string) (http.Handler, string, error) {
	dir, err := stateDir(tag)
	if err != nil {
		return nil, "", err
	}
	mgr, err := serve.NewManager(serve.Config{Options: w.options(), DataDir: dir})
	if err != nil {
		return nil, "", err
	}
	return serve.NewHandler(mgr), dir, nil
}

// repIngest times one paced session: from the session-create request to
// the final labels reply. With setupOnly it returns once the first request
// could be issued.
func repIngest(w *workload, seed int64, spawned time.Time, setupOnly bool) (*childResult, error) {
	b, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	bodies, sizes := ingestInputs(w, b.ESTs)
	h, dir, err := newIngestServer(w, "rep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &childResult{}

	res.SetupS = time.Since(spawned).Seconds()
	if setupOnly {
		return res, nil
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	s := runIngest(h, bodies, sizes, nil)
	res.WallS = time.Since(t0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	res.LastBatchS = s.lastBatch.Seconds()

	res.Attempted, res.Failed, res.Errors = s.requests, s.failed, s.errors
	if s.failed > 0 {
		return res, nil
	}
	res.Labels = canonical(s.labels)
	q, err := pace.Evaluate(s.labels, b.Truth)
	if err != nil {
		return nil, err
	}
	res.OQ = q.OQ
	res.Counts = incCounts(s.replies)
	return res, nil
}
