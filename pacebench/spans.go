package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one traced interval. Spans are kept in memory and written out
// when the traced run ends.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tally accumulates calls too frequent to span one by one (the per-pair
// union-find check): total time and call count.
type tally struct {
	d     time.Duration
	calls int64
}

// recorder records the spans of one traced pass. It is single-goroutine:
// the passes it traces call the layers sequentially.
type recorder struct {
	run     string
	t0      time.Time
	spans   []span
	open    []int
	tallies map[string]*tally
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, t0: time.Now(), tallies: map[string]*tally{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span as a child of the innermost open one.
func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Run: r.run, ID: id, Parent: parent, Name: name, Start: r.now()})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	r.spans[id].End = r.now()
	r.open = r.open[:len(r.open)-1]
}

// scope opens a span and returns the function that closes it.
func (r *recorder) scope(name string) func() {
	id := r.begin(name)
	return func() { r.end(id) }
}

func (r *recorder) tally(name string) *tally {
	t := r.tallies[name]
	if t == nil {
		t = &tally{}
		r.tallies[name] = t
	}
	return t
}

// layerTime is one layer's self time and call count within a pass.
type layerTime struct {
	self  time.Duration
	calls int64
}

// selfTimes returns each span name's self time: span duration minus the
// part covered by its child spans, summed over the pass. Tallies count as
// layers of their own. Root spans are left out; wall is their total.
func (r *recorder) selfTimes() (map[string]layerTime, time.Duration) {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	var wall time.Duration
	for i, s := range r.spans {
		if s.Parent < 0 {
			wall += time.Duration(s.End - s.Start)
			continue
		}
		lt := out[s.Name]
		lt.self += time.Duration(s.End - s.Start - child[i])
		lt.calls++
		out[s.Name] = lt
	}
	// Tallied calls are made directly under a root span, whose self time
	// is not a layer, so they are counted once.
	for name, t := range r.tallies {
		out[name] = layerTime{self: t.d, calls: t.calls}
	}
	return out, wall
}

// writeSpans writes every pass's spans as one JSON array.
func writeSpans(path string, recs ...*recorder) error {
	var all []span
	for _, r := range recs {
		all = append(all, r.spans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapAllocs reads the cumulative heap allocation counter cheaply (no
// stop-the-world, unlike runtime.ReadMemStats).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcDelta is the collector's work over a region.
type gcDelta struct {
	cycles  uint32
	pause   time.Duration
	allocMB float64
}

func gcSince(before *runtime.MemStats) gcDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return gcDelta{
		cycles:  after.NumGC - before.NumGC,
		pause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}
}

func memStats() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// layerTable renders one pass's self times: per layer its self time, its
// share of the pass wall and its call count, then the coverage line.
func layerTable(title string, layers map[string]layerTime, wall time.Duration) (string, float64) {
	var b strings.Builder
	names := make([]string, 0, len(layers))
	var covered time.Duration
	for n, lt := range layers {
		names = append(names, n)
		covered += lt.self
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].self > layers[names[j]].self })
	fmt.Fprintf(&b, "%s: wall %.4f s\n", title, wall.Seconds())
	fmt.Fprintf(&b, "  %-24s %12s %8s %10s\n", "layer", "self_s", "share", "calls")
	for _, n := range names {
		lt := layers[n]
		fmt.Fprintf(&b, "  %-24s %12.4f %7.1f%% %10d\n", n, lt.self.Seconds(), 100*share(lt.self, wall), lt.calls)
	}
	cov := share(covered, wall)
	fmt.Fprintf(&b, "  %-24s %12.4f %7.1f%%  (layer self time / pass wall)\n", "covered", covered.Seconds(), 100*cov)
	return b.String(), cov
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
