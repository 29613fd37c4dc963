// Command perfbench is the simulator's host-speed benchmark. It drives
// the simulator through its Go API on fixed simulated work, checks the
// simulated outputs, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) named in BENCHMARK.json. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload silo-paperscale --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// singleWorkloads are the cold-built single-machine workloads; the other
// workload, sweep, is in sweep.go. Why each exists is recorded in
// BENCHMARK.json and spec.json.
var singleWorkloads = map[string]singleSystem{
	"silo-paperscale": {
		cfg:       withScale(core.SILOConfig(16), 4),
		spec:      workload.WebSearch(),
		warmInstr: 100_000,
		windows:   120,
	},
}

// spec.json records what BENCHMARK.json has no room for: each workload's
// composition and its digest for the default seed, and for each
// per-layer metric the end-to-end metrics and workloads it should move.
//
//go:embed spec.json
var specJSON []byte

type perfSpec struct {
	DefaultSeed uint64 `json:"default_seed"`
	Workloads   map[string]struct {
		Composition string `json:"composition"`
		Digest      string `json:"default_seed_digest"`
	} `json:"workloads"`
	PerLayer map[string]struct {
		Moves []string `json:"moves"`
		On    []string `json:"on"`
	} `json:"per_layer"`
}

// benchFile is the part of BENCHMARK.json the benchmark reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	outDir  string
}

// results collects one run's metrics, checks and notes.
type results struct {
	values     map[string]float64
	attempted  int
	failed     int
	notes      []string
	digest     string
	traceSpans *tracer
}

func (r *results) set(name string, v float64) { r.values[name] = v }

func (r *results) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one correctness check and reports it when it fails.
func (r *results) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", fmt.Sprintf(format, args...))
	}
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostInfo {
	return hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

var spec = mustSpec()

func mustSpec() perfSpec {
	var s perfSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		panic(fmt.Sprintf("spec.json: %v", err))
	}
	return s
}

func main() {
	name := flag.String("workload", "", "workload: silo-paperscale or sweep")
	seed := flag.Uint64("seed", spec.DefaultSeed, "workload seed (core.Config.Seed)")
	seconds := flag.Int("seconds", 10, "time budget for the repetitions, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	bench, err := loadBench("BENCHMARK.json")
	if err != nil {
		fatalf("%v (run from the repository root)", err)
	}
	_, single := singleWorkloads[*name]
	if !single && *name != "sweep" {
		fatalf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace wants 0 or 1, got %d", *trace)
	}
	outDir := os.Getenv("CARGO_TARGET_DIR")
	if outDir == "" {
		outDir = ".bench_build"
	}
	outDir = filepath.Join(outDir, "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, outDir: outDir}
	res := &results{values: map[string]float64{}}
	if single {
		measureSingle(*name, singleWorkloads[*name], o, res)
	} else {
		measureSweep(o, res)
	}

	defs := bench.EndToEnd
	if o.trace {
		defs = bench.PerLayer
	}
	checkNames(defs, res)
	h := host()
	hb, _ := json.Marshal(h)
	fmt.Printf("perfbench: workload %s: %s\n", *name, spec.Workloads[*name].Composition)
	fmt.Printf("perfbench: seed %d, stats digest %s\n", *seed, res.digest)
	fmt.Printf("perfbench: host %s\n", hb)
	for _, n := range res.notes {
		fmt.Printf("perfbench: %s\n", n)
	}
	if o.trace && res.traceSpans != nil {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := res.traceSpans.write(path, h); err != nil {
			fatalf("write trace: %v", err)
		}
		fmt.Printf("perfbench: %d spans written to %s\n", len(res.traceSpans.spans), path)
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := res.values[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-34s %14.6g %s\n", d.Name, v, d.Unit)
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	fmt.Printf("fail_rate %g (%d of %d checks failed)\n", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	b, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func loadBench(path string) (benchFile, error) {
	var b benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// checkNames counts, as one check, that the run produced exactly the
// metrics BENCHMARK.json lists for its mode, each a finite number.
func checkNames(defs []metricDef, res *results) {
	var problems []string
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
		v, ok := res.values[d.Name]
		switch {
		case !ok:
			problems = append(problems, d.Name+" missing")
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, fmt.Sprintf("%s = %v", d.Name, v))
		}
	}
	for n := range res.values {
		if !listed[n] {
			problems = append(problems, n+" not in BENCHMARK.json")
		}
	}
	sort.Strings(problems)
	res.check(len(problems) == 0, "metrics: %s", strings.Join(problems, "; "))
}

// checkRecordedDigest compares the run's digest with the one spec.json
// records, when the run uses the default seed.
func checkRecordedDigest(name string, seed uint64, res *results) {
	if seed != spec.DefaultSeed {
		return
	}
	want := spec.Workloads[name].Digest
	res.check(res.digest == want, "%s: digest %s for the default seed, spec.json records %q", name, res.digest, want)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// median returns the middle of v (the mean of the two middle values for
// an even count).
func median(v []float64) float64 { return percentile(v, 50) }

// percentile linearly interpolates the p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// meanPerIndex returns, for each position i, the mean of times[r][i]
// over the repetitions r, which all have the same length.
func meanPerIndex(times [][]float64) []float64 {
	mean := make([]float64, len(times[0]))
	for _, t := range times {
		for i, v := range t {
			mean[i] += v / float64(len(times))
		}
	}
	return mean
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// liveHeapAfterGC collects garbage and returns the live Go heap.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	return liveHeap()
}

// liveHeap is the Go heap the last GC marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the live Go heap (as marked by the last GC) and
// keeps the peak since the last reset.
type heapSampler struct {
	max  atomic.Uint64
	quit chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := liveHeap()
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *heapSampler) reset() {
	h.max.Store(0)
	h.sample()
}

func (h *heapSampler) peak() uint64 {
	h.sample()
	return h.max.Load()
}

func (h *heapSampler) stop() {
	close(h.quit)
	h.wg.Wait()
}
