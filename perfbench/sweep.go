package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/robust"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// The sweep workload: a Quick-mode grid of {Baseline, SILO} x {four
// scale-out workloads, one scenario file} x {no override, llc_extra=9},
// run at -parallel = the host's CPU count into an empty checkpoint
// directory (the cold pass), then warmPasses times from the filled
// directory (the warm passes). A warm pass is a fifth of a cold one, so
// it is repeated to give its metrics more samples.
var (
	sweepSystems   = []string{"Baseline", "SILO"}
	sweepWorkloads = []string{"WebSearch", "DataServing", "MapReduce", "SATSolver"}
	sweepScenario  = filepath.Join("examples", "scenarios", "consolidation.yaml")
	sweepOverrides = []string{"-", "llc_extra=9"}
)

const warmPasses = 3

// sweepCells is the number of cells in the grid.
var sweepCells = len(sweepSystems) * (len(sweepWorkloads) + 1) * len(sweepOverrides)

// sweepCell is the grid's Baseline x DataServing cell with the DRAM cache
// added (Baseline+DRAM$), rebuilt directly through core, so that the
// traced sweep run can attribute one cell's host time to layers the grid
// runner hides. It is the shared-LLC design the paper argues against,
// with a snoop filter and a DRAM cache and no directory or vaults, so its
// layers complement silo-paperscale's.
var sweepCell = singleSystem{
	cfg:       withScale(core.BaselineDRAMConfig(16), experiments.Quick().Scale),
	spec:      workload.DataServing(),
	warmInstr: experiments.Quick().WarmInstr,
	windows:   int((experiments.Quick().WarmCycles + experiments.Quick().MeasureCycles) / windowCycles),
}

func withScale(cfg core.Config, scale int64) core.Config {
	cfg.Scale = scale
	return cfg
}

// sweepGrid compiles the grid for seed; the scenario file is read from
// the checkout.
func sweepGrid(seed uint64) (experiments.GridSpec, error) {
	var g experiments.GridSpec
	for _, name := range sweepSystems {
		cfg, err := experiments.SystemByName(name)
		if err != nil {
			return g, err
		}
		cfg.Seed = seed
		g.Systems = append(g.Systems, cfg)
	}
	for _, name := range sweepWorkloads {
		spec, err := experiments.WorkloadByName(name)
		if err != nil {
			return g, err
		}
		g.Workloads = append(g.Workloads, spec)
	}
	scen, err := scenario.Load(sweepScenario, experiments.WorkloadByName)
	if err != nil {
		return g, err
	}
	g.Scenarios = append(g.Scenarios, scen)
	for _, set := range sweepOverrides {
		ov, err := experiments.ParseOverride(set)
		if err != nil {
			return g, err
		}
		g.Overrides = append(g.Overrides, ov)
	}
	return g, nil
}

// sweepPass is one execution of the grid.
type sweepPass struct {
	wallS    float64
	records  []experiments.GridCellResult
	masked   string // JSON lines with wall_ms zeroed
	hits     uint64
	misses   uint64
	saves    uint64
	peakHeap uint64
}

func (p sweepPass) retired() uint64 {
	var n uint64
	for _, r := range p.records {
		n += r.Retired
	}
	return n
}

type sweepRep struct {
	cold      sweepPass
	warm      []sweepPass
	gcCycles  uint32
	gcPauseNS uint64
}

func runPass(ctx context.Context, g experiments.GridSpec, dir string, heap *heapSampler, tr *tracer, name string) (sweepPass, error) {
	var cs experiments.CheckpointStats
	m := experiments.Quick()
	m.Parallelism = runtime.NumCPU()
	m.CheckpointDir = dir
	m.Checkpoints = &cs
	heap.reset()
	var p sweepPass
	var lines strings.Builder
	passID := tr.begin(name, 0, 0)
	start := time.Now()
	err := experiments.RunGridStreamOpts(ctx, g, m, experiments.GridOptions{OnError: robust.SkipFailed},
		func(r experiments.GridCellResult) bool {
			if tr != nil {
				// The runner reports each cell's wall time; the span ends
				// when the record arrives here.
				end := tr.now()
				tr.add(span{Parent: passID, Group: r.Index + 1, Name: "experiments.cell", Start: end - int64(r.WallMS*1e6), End: end})
			}
			p.records = append(p.records, r)
			b, _ := json.Marshal(r)
			lines.Write(b)
			lines.WriteByte('\n')
			return true
		})
	p.wallS = time.Since(start).Seconds()
	tr.end(passID)
	p.peakHeap = heap.peak()
	p.masked = experiments.MaskWallMS(lines.String())
	p.hits, p.misses, p.saves = cs.Hits.Load(), cs.Misses.Load(), cs.Saves.Load()
	return p, err
}

func runSweepRep(g experiments.GridSpec, dir string, heap *heapSampler, tr *tracer, res *results) sweepRep {
	var r sweepRep
	if err := os.RemoveAll(dir); err != nil {
		fatalf("clear checkpoint dir: %v", err)
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ctx := context.Background()
	var err error
	r.cold, err = runPass(ctx, g, dir, heap, tr, "sweep.cold")
	res.check(err == nil, "cold pass: %v", err)
	for range warmPasses {
		p, err := runPass(ctx, g, dir, heap, tr, "sweep.warm")
		res.check(err == nil, "warm pass: %v", err)
		r.warm = append(r.warm, p)
	}
	runtime.ReadMemStats(&ms1)
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	return r
}

func measureSweep(o runOpts, res *results) {
	g, err := sweepGrid(o.seed)
	if err != nil {
		fatalf("sweep grid: %v", err)
	}
	dir := filepath.Join(o.outDir, "sweep-checkpoints")
	heap := startHeapSampler()
	defer heap.stop()
	tr := newTracer()
	var reps []sweepRep
	var plainCell, tracedCell []singleRep
	var compileNS []int64
	start := time.Now()
	for {
		if !o.trace {
			reps = append(reps, runSweepRep(g, dir, heap, nil, res))
		} else {
			reps = append(reps, runSweepRep(g, dir, heap, tr, res))
			id := tr.begin("scenario.compile", 0, 0)
			scen, err := scenario.Load(sweepScenario, experiments.WorkloadByName)
			if err == nil {
				_, err = scen.Sources(g.Systems[0].Cores, experiments.Quick().Scale, o.seed)
			}
			tr.end(id)
			res.check(err == nil, "scenario compile: %v", err)
			compileNS = append(compileNS, tr.get(id).dur())
			plainCell = append(plainCell, sweepCell.run(o.seed, nil, ""))
			tracedCell = append(tracedCell, sweepCell.run(o.seed, tr, filepath.Join(o.outDir, "sweep-cell.ckpt")))
		}
		if !another(start, len(reps), o.minReps(), o.seconds) {
			break
		}
	}
	os.Remove(filepath.Join(o.outDir, "sweep-cell.ckpt"))
	checkSweep(reps, res)
	if len(plainCell) > 0 {
		checkSingle(append(plainCell, tracedCell...), res)
	}
	res.digest = sweepDigest(reps[0].cold.masked)
	checkRecordedDigest("sweep", o.seed, res)

	cells := len(reps[0].cold.records)
	if !o.trace {
		var cold, warm, mips, heap []float64
		var win [][]float64
		m := experiments.Quick()
		for _, r := range reps {
			cold = append(cold, r.cold.wallS)
			peak := r.cold.peakHeap
			for _, p := range r.warm {
				warm = append(warm, p.wallS)
				mips = append(mips, float64(p.retired())/p.wallS/1e6)
				peak = max(peak, p.peakHeap)
				perWindow := make([]float64, sweepCells)
				for _, c := range p.records {
					perWindow[c.Index] = c.WallMS * float64(windowCycles) / float64(uint64(m.WarmCycles)+c.Cycles)
				}
				win = append(win, perWindow)
			}
			heap = append(heap, float64(peak)/(1<<20))
		}
		// As on the single-system workloads, every warm pass does the
		// same simulated work, cell by cell, so the warm passes are
		// measured by their mean: sim_mips over their total wall time,
		// the window percentiles over each cell's mean time.
		mean := meanPerIndex(win)
		res.set("setup_s", median(cold))
		res.set("sim_mips", float64(reps[0].warm[0].retired())*float64(len(warm))/sum(warm)/1e6)
		res.set("window_ms_p50", percentile(mean, 50))
		res.set("window_ms_p90", percentile(mean, 90))
		res.set("peak_heap_mb", median(heap))
		res.notef("%d repetitions of a %d-cell grid at -parallel %d, each a cold and %d warm passes; sweep_cold_s %.4f (the median, reported as setup_s); sweep_warm_s %.4f (the mean, giving sim_mips); window_ms_* are percentiles over the %d cells' mean host ms per 10k simulated cycles",
			len(reps), cells, runtime.NumCPU(), warmPasses, median(cold), sum(warm)/float64(len(warm)), len(mean))
		res.notef("per pass: sweep_cold_s %.3f, sweep_warm_s %.3f, sim_mips %.3f", cold, warm, mips)
		return
	}

	var cellMS, hits, misses, saves, gc, gcPause []float64
	for _, r := range reps {
		for _, c := range r.cold.records {
			cellMS = append(cellMS, c.WallMS)
		}
		hits = append(hits, float64(r.cold.hits))
		misses = append(misses, float64(r.cold.misses))
		saves = append(saves, float64(r.cold.saves))
		gc = append(gc, float64(r.gcCycles))
		gcPause = append(gcPause, float64(r.gcPauseNS)/1e6)
	}
	var compileMS []float64
	for _, ns := range compileNS {
		compileMS = append(compileMS, float64(ns)/1e6)
	}
	singleLayerMetrics(sweepCell, sweepCell.config(o.seed), plainCell, tracedCell, res)
	res.set("checkpoint.hits", median(hits))
	res.set("checkpoint.misses", median(misses))
	res.set("checkpoint.saves", median(saves))
	res.set("experiments.cell_ms_p50", percentile(cellMS, 50))
	res.set("experiments.cell_ms_max", percentile(cellMS, 100))
	res.set("scenario.compile_ms", median(compileMS))
	res.set("runtime.gc_cycles", median(gc))
	res.set("runtime.gc_pause_ms", median(gcPause))
	res.notef("traced: %d sweep repetitions (%d cold-pass cells each, %d cell samples); workload/core/sim/cpu/cache/coherence/vault/checkpoint.*_s metrics come from the Baseline+DRAM$ x DataServing cell rebuilt through core (%d untraced + %d traced repetitions)",
		len(reps), cells, len(cellMS), len(plainCell), len(tracedCell))
	res.traceSpans = tr
}

// checkSweep applies the sweep's correctness checks: no cell error
// record, byte-identical cold and warm passes once wall_ms is masked,
// every warm-pass cell restored from a checkpoint, and identical records
// in every repetition.
func checkSweep(reps []sweepRep, res *results) {
	want := sweepCells
	for i, r := range reps {
		for _, p := range append([]sweepPass{r.cold}, r.warm...) {
			res.check(len(p.records) == want, "rep %d: %d records, want %d", i, len(p.records), want)
			for _, c := range p.records {
				res.check(c.Error == nil, "rep %d: cell %d (%s/%s/%s) failed: %+v", i, c.Index, c.System, c.Workload, c.Override, c.Error)
			}
		}
		for _, p := range r.warm {
			res.check(p.masked == r.cold.masked, "rep %d: warm-pass records differ from the cold pass", i)
			res.check(p.hits == uint64(want) && p.misses == 0, "rep %d: warm pass restored %d of %d cells", i, p.hits, want)
		}
		res.check(r.cold.masked == reps[0].cold.masked, "rep %d: records differ from rep 0", i)
	}
}

func sweepDigest(masked string) string {
	h := fnv.New64a()
	h.Write([]byte(masked))
	return fmt.Sprintf("%016x", h.Sum64())
}
