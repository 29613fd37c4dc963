package main

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

func TestSelfTime(t *testing.T) {
	// rep [0,100) holds build [10,30), warm [30,90) with an aggregated
	// gen child [40,60) and an overlapping child [50,70), and a child
	// that sticks out of its parent [95,120).
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "build", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "warm", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "gen", Start: 40, End: 60, Calls: 7},
		{ID: 5, Parent: 3, Name: "other", Start: 50, End: 70},
		{ID: 6, Parent: 1, Name: "late", Start: 95, End: 120},
	}
	got := selfTimes(spans)
	want := []int64{100 - 20 - 60 - 5, 20, 60 - 30, 20, 20, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestMeanPerIndex(t *testing.T) {
	// Two repetitions of four windows; a slow spell covers different
	// windows in each.
	got := meanPerIndex([][]float64{
		{5, 9, 9, 4},
		{7, 3, 6, 4},
	})
	if want := []float64{6, 6, 7.5, 4}; !slices.Equal(got, want) {
		t.Fatalf("meanPerIndex = %v, want %v", got, want)
	}
}

func TestSeedReachesTraffic(t *testing.T) {
	for name, s := range singleWorkloads {
		s.windows = 3
		a := s.run(1, nil, "")
		b := s.run(2, nil, "")
		again := s.run(1, nil, "")
		if a.digest == b.digest {
			t.Errorf("%s: seeds 1 and 2 give the same stats digest %016x", name, a.digest)
		}
		if a.digest != again.digest || a.events != again.events || a.lineEntries != again.lineEntries {
			t.Errorf("%s: two runs of seed 1 differ", name)
		}
	}
	chdirRoot(t)
	g, err := sweepGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range g.Systems {
		if cfg.Seed != 2 {
			t.Errorf("sweep system %v has seed %d, want 2", cfg.Kind, cfg.Seed)
		}
	}
}

// TestMetricNames checks that spec.json and BENCHMARK.json describe the
// same workloads and metrics, and that each mode of each workload emits
// exactly the metrics BENCHMARK.json lists for it.
func TestMetricNames(t *testing.T) {
	bench, err := loadBench(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names, specNames []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for n := range spec.Workloads {
		specNames = append(specNames, n)
	}
	sort.Strings(names)
	sort.Strings(specNames)
	if len(names) != 2 || !slices.Equal(names, specNames) {
		t.Errorf("BENCHMARK.json workloads %v, spec.json %v", names, specNames)
	}
	for _, n := range names {
		if _, ok := singleWorkloads[n]; !ok && n != "sweep" {
			t.Errorf("workload %s is not implemented", n)
		}
	}
	e2e := map[string]bool{}
	for _, d := range bench.EndToEnd {
		e2e[d.Name] = true
	}
	listed := map[string]bool{}
	for _, d := range bench.PerLayer {
		listed[d.Name] = true
		target, ok := spec.PerLayer[d.Name]
		if !ok {
			t.Errorf("per-layer %s has no target in spec.json", d.Name)
		}
		for _, m := range target.Moves {
			if !e2e[m] {
				t.Errorf("per-layer %s targets %s, not an end-to-end metric", d.Name, m)
			}
		}
		for _, w := range target.On {
			if _, ok := spec.Workloads[w]; !ok {
				t.Errorf("per-layer %s targets unknown workload %s", d.Name, w)
			}
		}
	}
	for n := range spec.PerLayer {
		if !listed[n] {
			t.Errorf("spec.json targets %s, which BENCHMARK.json does not list", n)
		}
	}

	tiny := singleSystem{cfg: sweepCell.cfg, spec: sweepCell.spec, warmInstr: 4000, windows: 2}
	for _, trace := range []bool{false, true} {
		o := testOpts(t, trace)
		res := &results{values: map[string]float64{}}
		measureSingle("tiny", tiny, o, res)
		defs := bench.EndToEnd
		if trace {
			defs = bench.PerLayer
		}
		checkNames(defs, res)
		if res.failed != 0 {
			t.Errorf("single-system run (trace %v): %d of %d checks failed", trace, res.failed, res.attempted)
		}
	}
	if testing.Short() {
		t.Skip("the sweep runs take about half a minute")
	}
	for _, trace := range []bool{false, true} {
		o := testOpts(t, trace)
		res := &results{values: map[string]float64{}}
		chdirRoot(t)
		measureSweep(o, res)
		defs := bench.EndToEnd
		if trace {
			defs = bench.PerLayer
		}
		checkNames(defs, res)
		if res.failed != 0 {
			t.Errorf("sweep run (trace %v): %d of %d checks failed", trace, res.failed, res.attempted)
		}
	}
}

// testOpts runs with no time budget (the fewest repetitions) on a seed
// other than the default, whose recorded digests belong to the real
// workloads.
func testOpts(t *testing.T, trace bool) runOpts {
	return runOpts{seed: 7, trace: trace, outDir: t.TempDir()}
}

// chdirRoot moves to the repository root, where the sweep finds its
// scenario file, for the rest of the test.
func chdirRoot(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(wd) == "perfbench" {
		t.Chdir("..")
	}
}
