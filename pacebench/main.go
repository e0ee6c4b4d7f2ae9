// Command pacebench is the repository's end-to-end benchmark. It runs one
// named workload against the public entry points (pace.Cluster, and the
// paced handler from serve.NewHandler), checks every output against the
// sequential engine, and prints its metrics as one JSON line.
//
// Usage, from the repository root (run.sh builds and runs this program):
//
//	bash pacebench/run.sh --workload oneshot --seed 3 --seconds 30 --trace 0
//
// With --trace 0 it runs timed repetitions, each in its own child process,
// for --seconds seconds and reports the end-to-end metrics as medians. With
// --trace 1 it runs one traced replay in a child process, prints the
// per-layer table and writes the span file under .bench_build/spans.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// deadline bounds a whole invocation; children still running then are
// killed and count as failed.
const deadline = 170 * time.Second

// minReps is the fewest timed repetitions a run makes, so that its medians
// have at least three samples.
const minReps = 3

// setupRuns is the number of extra set-up-only children per run. Set-up
// takes tens of milliseconds, so a few repetitions alone give a noisy
// median.
const setupRuns = 20

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads the metric names and units from BENCHMARK.json in the
// working directory, the checkout root.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func parentMain(args []string) int {
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		return 1
	}
	fs := flag.NewFlagSet("pacebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(cfg.names(), ", "))
	seed := fs.Int64("seed", cfg.DefaultSeed, "input seed")
	seconds := fs.Int("seconds", 30, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := cfg.Workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "pacebench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(cfg.names(), ", "))
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var res *result
	if *trace == 1 {
		res, err = traced(ctx, spec, w, *seed)
	} else {
		res, err = timed(ctx, cfg, spec, w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// spawned is one finished child process.
type spawned struct {
	res     *childResult
	maxRSS  float64 // MB
	elapsed time.Duration
}

// spawn runs one child role to completion and decodes its result. A child
// that fails, or is killed at the deadline, yields an error.
func spawn(ctx context.Context, role string, w *workload, seed int64) (*spawned, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, self, "child",
		"-role", role, "-workload", w.Name, "-seed", fmt.Sprint(seed),
		"-spawned", fmt.Sprint(t0.UnixNano()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	sp := &spawned{elapsed: time.Since(t0)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			sp.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return sp, fmt.Errorf("%s child: %w", role, err)
	}
	sp.res = &childResult{}
	if err := json.Unmarshal(out.Bytes(), sp.res); err != nil {
		return sp, fmt.Errorf("%s child output: %w", role, err)
	}
	return sp, nil
}

// timed runs the reference and then closed-loop repetitions until the
// measurement window is used, and reports medians of the end-to-end
// metrics.
func timed(ctx context.Context, cfg *config, spec *benchSpec, w *workload, seed int64, window time.Duration) (*result, error) {
	var fails []string
	attempted, failed := 1, 0
	ref, err := spawn(ctx, "ref", w, seed)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if err := checkReference(cfg, w, seed, ref.res); err != nil {
		failed++
		fails = append(fails, "reference: "+err.Error())
	}

	samples := map[string][]float64{}
	varying := map[string][]float64{}
	for i := 0; i < setupRuns; i++ {
		sp, err := spawn(ctx, "setup", w, seed)
		if err != nil {
			return nil, err
		}
		samples["setup_s"] = append(samples["setup_s"], sp.res.SetupS)
	}
	var first map[string]int64
	t0 := time.Now()
	var reps int
	var repTimes []float64
	for reps < minReps || time.Since(t0)+time.Duration(median(repTimes)*float64(time.Second)) <= window {
		if ctx.Err() != nil {
			break
		}
		reps++
		sp, err := spawn(ctx, "rep", w, seed)
		repTimes = append(repTimes, sp.elapsed.Seconds())
		if err != nil {
			attempted, failed = attempted+1, failed+1
			fails = append(fails, err.Error())
			continue
		}
		r := sp.res
		attempted += r.Attempted
		failed += r.Failed
		fails = append(fails, r.Errors...)
		if r.Failed > 0 {
			continue
		}
		if err := checkRep(r, ref.res, &first); err != nil {
			failed++
			fails = append(fails, fmt.Sprintf("repetition %d: %v", reps, err))
			continue
		}
		samples["wall_s"] = append(samples["wall_s"], r.WallS)
		samples["last_batch_s"] = append(samples["last_batch_s"], r.LastBatchS)
		samples["cpu_s"] = append(samples["cpu_s"], r.CPUS)
		samples["setup_s"] = append(samples["setup_s"], r.SetupS)
		samples["oq"] = append(samples["oq"], r.OQ)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], sp.maxRSS)
		for k, v := range r.Varying {
			varying[k] = append(varying[k], v)
		}
	}
	window = time.Since(t0)
	if first != nil {
		if err := checkExpected(cfg, w, seed, first); err != nil {
			failed++
			fails = append(fails, "repetitions: "+err.Error())
		}
	}
	samples["fail_frac"] = []float64{float64(failed) / float64(attempted)}

	fmt.Printf("pacebench %s seed=%d: %d repetitions in %.1f s, %s\n", w.Name, seed, reps, window.Seconds(), cfg.Loop)
	fmt.Printf("  %-14s %-6s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	units := map[string]string{"fail_frac": "ratio"}
	names := []string{}
	for _, ms := range spec.EndToEnd {
		units[ms.Name] = ms.Unit
		names = append(names, ms.Name)
	}
	for _, n := range append(names, "fail_frac") {
		q1, med, q3 := quartiles(samples[n])
		fmt.Printf("  %-14s %-6s %12.6g %12.6g %12.6g %4d\n", n, units[n], med, q1, q3, len(samples[n]))
	}
	fmt.Printf("  fail_frac base: %d failed / %d attempted operations\n", failed, attempted)
	fmt.Printf("  reference partition: %d ESTs, fingerprint %s, oq %.10f\n", len(ref.res.Labels), fingerprint(ref.res.Labels), ref.res.OQ)
	fmt.Printf("  reference counts (sequential engine): %s\n", formatCounts(ref.res.Counts))
	if first != nil {
		fmt.Printf("  repetition counts, identical in every repetition: %s\n", formatCounts(first))
	}
	for _, k := range sortedKeys(varying) {
		q1, med, q3 := quartiles(varying[k])
		fmt.Printf("  %s (real concurrency, varies by schedule): median %.6g, q1 %.6g, q3 %.6g, n %d\n", k, med, q1, q3, len(varying[k]))
	}
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "pacebench: FAILED:", f)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, ms := range spec.EndToEnd {
		s, ok := samples[ms.Name]
		if !ok {
			// No repetition succeeded; the zero value is not a measurement.
			res.Correct = false
		}
		_, med, _ := quartiles(s)
		res.Metrics[ms.Name] = metricValue{Value: med, Unit: ms.Unit}
	}
	return res, nil
}

// checkReference compares the sequential engine's outputs for the default
// seed against the values workloads.json records.
func checkReference(cfg *config, w *workload, seed int64, ref *childResult) error {
	if seed != cfg.DefaultSeed {
		return nil
	}
	e := w.Expected
	if e.Fingerprint != "" && fingerprint(ref.Labels) != e.Fingerprint {
		return fmt.Errorf("partition fingerprint %s, workloads.json records %s", fingerprint(ref.Labels), e.Fingerprint)
	}
	if e.OQ != 0 && math.Abs(ref.OQ-e.OQ) > 1e-9 {
		return fmt.Errorf("oq %.10f, workloads.json records %.10f", ref.OQ, e.OQ)
	}
	return checkExpected(cfg, w, seed, ref.Counts)
}

// checkRep requires a repetition to reproduce the reference partition, the
// reference's counters where both have them, and the first repetition's
// counters exactly.
func checkRep(r, ref *childResult, first *map[string]int64) error {
	if !samePartition(r.Labels, ref.Labels) {
		return fmt.Errorf("partition differs from the sequential engine's")
	}
	for k, v := range r.Counts {
		if want, ok := ref.Counts[k]; ok && v != want {
			return fmt.Errorf("%s = %d, sequential engine %d", k, v, want)
		}
	}
	if *first == nil {
		*first = r.Counts
		return nil
	}
	for k, v := range r.Counts {
		if (*first)[k] != v {
			return fmt.Errorf("count drift: %s = %d, first repetition %d", k, v, (*first)[k])
		}
	}
	return nil
}

// traced runs the traced replay in a child process and reports the
// per-layer metrics.
func traced(ctx context.Context, spec *benchSpec, w *workload, seed int64) (*result, error) {
	sp, err := spawn(ctx, "trace", w, seed)
	if err != nil {
		return nil, err
	}
	r := sp.res
	if r.Failed > 0 || r.Layers == nil {
		return nil, fmt.Errorf("traced run failed, no layer table: %s", strings.Join(r.Errors, "; "))
	}
	fmt.Print(r.Report)
	declared := map[string]bool{}
	res := &result{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, ms := range spec.PerLayer {
		declared[ms.Name] = true
		// A layer the workload does not run reports 0.
		res.Metrics[ms.Name] = metricValue{Value: r.Layers[ms.Name], Unit: ms.Unit}
	}
	for k := range r.Layers {
		if !declared[k] {
			return nil, fmt.Errorf("layer metric %s is not declared in BENCHMARK.json", k)
		}
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile by
// Python's statistics.quantiles(n=4) (exclusive method).
func quartiles(v []float64) (float64, float64, float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	n := len(s)
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatCounts(c map[string]int64) string {
	var parts []string
	for _, k := range sortedKeys(c) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
	}
	return strings.Join(parts, " ")
}
