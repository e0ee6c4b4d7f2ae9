package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"pace"
)

// workloads.json is the single record of each workload's generator
// settings, its default seed and the values expected for that seed; the
// benchmark reads its configuration from it.
//
//go:embed workloads.json
var workloadsJSON []byte

type config struct {
	Loop        string               `json:"loop"`
	DefaultSeed int64                `json:"default_seed"`
	Workloads   map[string]*workload `json:"workloads"`
}

type workload struct {
	Name       string
	Why        string    `json:"why"`
	Generator  generator `json:"generator"`
	Processors int       `json:"processors"`
	Batches    int       `json:"batches"`
	Expected   expected  `json:"expected"`
}

type generator struct {
	NumESTs  int `json:"num_ests"`
	NumGenes int `json:"num_genes"`
}

// expected holds the outputs recorded for the default seed. Counts are the
// deterministic work counters; a missing entry is not checked.
type expected struct {
	OQ          float64          `json:"oq"`
	Fingerprint string           `json:"fingerprint"`
	Counts      map[string]int64 `json:"counts"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range c.Workloads {
		w.Name = name
		if w.Generator.NumESTs < w.Batches || w.Batches < 1 || w.Processors < 1 {
			return nil, fmt.Errorf("workloads.json: workload %s: bad sizes", name)
		}
	}
	return &c, nil
}

func (c *config) names() []string {
	var out []string
	for name := range c.Workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// inputs generates the workload's ESTs and their true genes from seed.
func (w *workload) inputs(seed int64) (*pace.Benchmark, error) {
	return pace.Simulate(pace.SimOptions{
		NumESTs:  w.Generator.NumESTs,
		NumGenes: w.Generator.NumGenes,
		Seed:     seed,
	})
}

func (w *workload) options() pace.Options {
	opt := pace.DefaultOptions()
	opt.Processors = w.Processors
	return opt
}

// batchBounds returns the [lo, hi) EST range of batch i.
func (w *workload) batchBounds(i, n int) (int, int) {
	return i * n / w.Batches, (i + 1) * n / w.Batches
}

func estID(i int) string { return fmt.Sprintf("est%06d", i) }

// fastaBatch renders ESTs [lo, hi) as a FASTA request body.
func fastaBatch(ests []string, lo, hi int) []byte {
	var b bytes.Buffer
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, ">%s\n%s\n", estID(i), ests[i])
	}
	return b.Bytes()
}

// canonical renumbers labels by first occurrence, so two partitions are
// equal exactly when their canonical forms are.
func canonical[T int | int32](labels []T) []int {
	seen := make(map[T]int)
	out := make([]int, len(labels))
	for i, l := range labels {
		c, ok := seen[l]
		if !ok {
			c = len(seen)
			seen[l] = c
		}
		out[i] = c
	}
	return out
}

func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fingerprint names a canonical partition by the first 16 hex digits of
// its SHA-256.
func fingerprint(canon []int) string {
	h := sha256.New()
	for _, l := range canon {
		h.Write(strconv.AppendInt(nil, int64(l), 10))
		h.Write([]byte{','})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
