package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// windowCycles is the simulated length of one measured window.
const windowCycles sim.Cycle = 10_000

// singleSystem is a workload that cold-builds one simulated machine from
// the seed, warms it functionally and then measures a fixed number of
// consecutive windows. Every repetition does exactly the same simulated
// work.
type singleSystem struct {
	cfg       core.Config // Seed is replaced by the run's seed
	spec      workload.Spec
	warmInstr int // functional warm-up instructions per core
	windows   int
}

// singleRep is what one repetition measured.
type singleRep struct {
	setupS       float64
	windowNS     []int64
	retired      uint64
	cycles       uint64
	events       uint64
	lineEntries  int
	bytesPerSlot int
	digest       uint64
	stats        [len(statNames)]uint64 // summed over the windows
	liveHeap     uint64                 // held by the finished system
	gcCycles     uint32                 // over the whole repetition
	gcPauseNS    uint64
	invariants   string

	// Filled by traced repetitions only.
	layers *singleLayers
}

// singleLayers is the per-layer breakdown of one traced repetition.
type singleLayers struct {
	buildNS, prewarmNS, warmNS int64
	warmGenNS                  int64
	warmOps                    uint64
	prewarmVisits              uint64
	timedNS, timedSelfNS       int64
	timedGenNS                 int64
	timedOps                   uint64
	saveS, restoreS            float64
	ckptBytes                  int64
	roundTrip                  string // what the checkpoint round trip broke; "" when healthy
}

func (s singleSystem) config(seed uint64) core.Config {
	cfg := s.cfg
	cfg.Seed = seed
	return cfg
}

func (s singleSystem) sources(cfg core.Config) []workload.Source {
	srcs := make([]workload.Source, cfg.Cores)
	for c := range srcs {
		srcs[c] = workload.NewStream(s.spec, c, cfg.Cores, cfg.Scale, cfg.Seed)
	}
	return srcs
}

// run performs one repetition. With tr non-nil it records spans around
// every call into the simulator, times the generators through
// timedSource, and round-trips the warmed state through a checkpoint
// file at ckptPath; the untraced repetition does none of that, so its
// timings are the end-to-end ones.
func (s singleSystem) run(seed uint64, tr *tracer, ckptPath string) singleRep {
	runtime.GC()
	cfg := s.config(seed)
	var r singleRep
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var acc *genAcc
	var timed []*timedSource
	repID := 0
	if tr != nil {
		acc = &genAcc{tr: tr}
		repID = tr.begin("rep", 0, 0)
	}
	t0 := time.Now()
	srcs := s.sources(cfg)
	if tr != nil {
		for c, src := range srcs {
			ts := &timedSource{Source: src, acc: acc}
			timed = append(timed, ts)
			srcs[c] = ts
		}
	}
	buildID := tr.begin("core.build", repID, 0)
	sys := core.NewSystemFromSources(cfg, srcs)
	tr.end(buildID)
	prewarmID := tr.begin("core.prewarm", repID, 0)
	sys.Prewarm()
	tr.end(prewarmID)
	if tr != nil {
		tr.addAggregate("workload.prewarm", prewarmID, acc)
	}
	warmID := tr.begin("core.warm", repID, 0)
	sys.WarmFunctional(s.warmInstr)
	tr.end(warmID)
	r.setupS = time.Since(t0).Seconds()

	var l *singleLayers
	if tr != nil {
		l = &singleLayers{warmGenNS: acc.ns, warmOps: acc.ops}
		tr.addAggregate("workload.gen", warmID, acc)
		l.buildNS = tr.get(buildID).dur()
		l.prewarmNS = tr.get(prewarmID).dur()
		l.warmNS = tr.get(warmID).dur()
		for _, ts := range timed {
			l.prewarmVisits += ts.visits
		}
		saveID := tr.begin("checkpoint.save", repID, 0)
		if err := checkpoint.Save(ckptPath, "perfbench", "", sys.Checkpoint); err != nil {
			fatalf("checkpoint save: %v", err)
		}
		tr.end(saveID)
		l.saveS = float64(tr.get(saveID).dur()) / 1e9
		if fi, err := os.Stat(ckptPath); err == nil {
			l.ckptBytes = fi.Size()
		}
	}
	savedEntries, _ := sys.LineTable()

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	ws := sys.StreamWindows(0, windowCycles)
	ev0 := sys.Engine().Executed()
	timedID := tr.begin("core.timed", repID, 0)
	for w := 0; w < s.windows; w++ {
		wid := tr.begin("core.window", timedID, w+1)
		start := time.Now()
		m := ws.Next()
		r.windowNS = append(r.windowNS, int64(time.Since(start)))
		if tr != nil {
			tr.end(wid)
			l.timedGenNS += acc.ns
			l.timedOps += acc.ops
			tr.addAggregate("workload.gen", wid, acc)
		}
		st := statValues(m.Stats)
		for i, v := range st {
			r.stats[i] += v
			put(v)
		}
		put(m.Retired)
		for _, v := range m.PerCoreRetired {
			put(v)
		}
		r.retired += m.Retired
		r.cycles += uint64(m.Cycles)
	}
	tr.end(timedID)
	runtime.ReadMemStats(&ms1)
	r.events = sys.Engine().Executed() - ev0
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	r.digest = h.Sum64()
	r.invariants = sys.CheckInvariants()
	r.lineEntries, r.bytesPerSlot = sys.LineTable()
	r.liveHeap = liveHeapAfterGC()
	sys.Close()

	if tr != nil {
		var windowSelf int64
		self := selfTimes(tr.spans)
		for i, sp := range tr.spans {
			if sp.Parent == timedID && sp.Name == "core.window" {
				windowSelf += self[i]
			}
		}
		l.timedNS = tr.get(timedID).dur()
		l.timedSelfNS = windowSelf

		runtime.GC()
		restoreID := tr.begin("checkpoint.restore", repID, 0)
		restored, err := restoreSystem(cfg, s.sources(cfg), ckptPath)
		tr.end(restoreID)
		if err != nil {
			fatalf("checkpoint restore: %v", err)
		}
		l.restoreS = float64(tr.get(restoreID).dur()) / 1e9
		if entries, _ := restored.LineTable(); entries != savedEntries {
			l.roundTrip = fmt.Sprintf("restored line table holds %d entries, saved %d", entries, savedEntries)
		} else {
			l.roundTrip = restored.CheckInvariants()
		}
		restored.Close()
		tr.end(repID)
		r.layers = l
	}
	return r
}

func restoreSystem(cfg core.Config, srcs []workload.Source, path string) (*core.System, error) {
	rd, err := checkpoint.Open(path, "perfbench")
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	return core.NewSystemFromCheckpointSources(cfg, srcs, rd)
}

// statNames maps the simulated counters the benchmark reports (per kilo
// instruction) to their per-layer metric names; statValues must list the
// fields in this order.
var statNames = [...]string{
	"llc.accesses_pki", "llc.local_hits_pki", "llc.remote_hits_pki", "llc.misses_pki",
	"coherence.dir_accesses_pki", "coherence.invalidations_pki", "coherence.forwards_pki", "coherence.upgrades_pki",
	"vault.accesses_pki", "dramcache.hits_pki", "memctl.accesses_pki", "memctl.writebacks_pki",
	// Not reported, but part of the fixed-work digest.
	"", "", "",
}

func statValues(s core.Stats) [len(statNames)]uint64 {
	return [...]uint64{
		s.LLCAccesses, s.LocalHits, s.RemoteHits, s.Misses,
		s.DirAccesses, s.Invalidations, s.Forwards, s.Upgrades,
		s.VaultAccesses, s.DRAMCacheHits, s.MemAccesses, s.MemWritebacks,
		s.Reads, s.WritesPrivate, s.WritesRWShared,
	}
}

// measureSingle runs an unmeasured warm-up repetition, then untraced
// repetitions until the time budget is spent (at least minReps), and
// reports the end-to-end metrics, or, when traced, alternates untraced
// and traced repetitions and reports the per-layer metrics.
func measureSingle(name string, s singleSystem, o runOpts, res *results) {
	cfg := s.config(o.seed)
	ckptPath := filepath.Join(o.outDir, name+".ckpt")
	defer os.Remove(ckptPath)

	// The first repetition in a process runs slower than the rest (it
	// faults in a fresh heap), so it is checked but not measured.
	warmUp := s.run(o.seed, nil, "")
	var plain, traced []singleRep
	tr := newTracer()
	start := time.Now()
	for {
		plain = append(plain, s.run(o.seed, nil, ""))
		if o.trace {
			traced = append(traced, s.run(o.seed, tr, ckptPath))
		}
		if !another(start, len(plain), o.minReps(), o.seconds) {
			break
		}
	}
	checkSingle(append(append([]singleRep{warmUp}, plain...), traced...), res)
	res.digest = fmt.Sprintf("%016x", plain[0].digest)
	checkRecordedDigest(name, o.seed, res)

	if !o.trace {
		var setup, mips, heap []float64
		var win [][]float64
		for _, r := range plain {
			setup = append(setup, r.setupS)
			mips = append(mips, r.mips())
			heap = append(heap, float64(r.liveHeap)/(1<<20))
			ms := make([]float64, len(r.windowNS))
			for i, ns := range r.windowNS {
				ms[i] = float64(ns) / 1e6
			}
			win = append(win, ms)
		}
		// Every repetition does the same simulated work, window by
		// window, so a window's time differs between repetitions only by
		// the speed of the shared host, which swings by up to 2x for
		// minutes at a time. A run's fast and slow spells then make any
		// per-repetition median or extreme jump between the two speeds;
		// each window's mean over the repetitions moves only in
		// proportion to the share of slow spells.
		mean := meanPerIndex(win)
		res.set("setup_s", median(setup))
		res.set("sim_mips", float64(plain[0].retired)/(sum(mean)*1e3))
		res.set("window_ms_p50", percentile(mean, 50))
		res.set("window_ms_p90", percentile(mean, 90))
		res.set("peak_heap_mb", median(heap))
		res.notef("%d repetitions x %d windows of %d cycles; %s, %d cores, Scale %d, %s; setup_s and peak_heap_mb are medians over the repetitions, sim_mips and window_ms_* come from the %d windows' mean times",
			len(plain), s.windows, windowCycles, cfg.Kind, cfg.Cores, cfg.Scale, s.spec.Name, len(mean))
		res.notef("per repetition: setup_s %.3f, sim_mips %.3f", setup, mips)
		return
	}

	singleLayerMetrics(s, cfg, plain, traced, res)
	res.set("checkpoint.hits", 0)
	res.set("checkpoint.misses", 0)
	res.set("checkpoint.saves", 0)
	res.set("experiments.cell_ms_p50", 0)
	res.set("experiments.cell_ms_max", 0)
	res.set("scenario.compile_ms", 0)
	res.notef("traced: %d untraced + %d traced repetitions; no grid runs on this workload, so the checkpoint-cache, experiments and scenario metrics are 0", len(plain), len(traced))
	res.traceSpans = tr
}

// singleLayerMetrics reports the per-layer metrics of a single-system
// workload from its traced repetitions; plain are the untraced ones run
// alongside, for the tracing overhead.
func singleLayerMetrics(s singleSystem, cfg core.Config, plain, traced []singleRep, res *results) {
	var genPerOp, genShare, buildS, prewarmS, warmS, warmHier, timedSelf, nsPerEvent, saveS, restoreS, gc, gcPause []float64
	var tracedMIPS, plainMIPS []float64
	for _, r := range plain {
		plainMIPS = append(plainMIPS, r.mips())
	}
	for _, r := range traced {
		l := r.layers
		genPerOp = append(genPerOp, float64(l.timedGenNS)/float64(l.timedOps))
		genShare = append(genShare, float64(l.timedGenNS)/float64(l.timedNS))
		buildS = append(buildS, float64(l.buildNS)/1e9)
		prewarmS = append(prewarmS, float64(l.prewarmNS)/1e9)
		warmS = append(warmS, float64(l.warmNS)/1e9)
		warmHier = append(warmHier, float64(l.warmNS-l.warmGenNS)/float64(l.warmOps))
		timedSelf = append(timedSelf, float64(l.timedSelfNS)/float64(r.retired))
		nsPerEvent = append(nsPerEvent, float64(l.timedNS)/float64(r.events))
		saveS = append(saveS, l.saveS)
		restoreS = append(restoreS, l.restoreS)
		gc = append(gc, float64(r.gcCycles))
		gcPause = append(gcPause, float64(r.gcPauseNS)/1e6)
		tracedMIPS = append(tracedMIPS, float64(r.retired)/(float64(l.timedNS)/1e9)/1e6)
	}
	r0 := traced[0]
	windows := float64(s.windows)
	res.set("workload.gen_ns_per_op", median(genPerOp))
	res.set("workload.gen_share", median(genShare))
	res.set("workload.ops_per_window", float64(r0.layers.timedOps)/windows)
	res.set("core.build_s", median(buildS))
	res.set("core.prewarm_s", median(prewarmS))
	res.set("core.prewarm_visits", float64(r0.layers.prewarmVisits))
	res.set("core.warm_s", median(warmS))
	res.set("core.warm_hier_ns_per_op", median(warmHier))
	res.set("core.timed_self_ns_per_instr", median(timedSelf))
	res.set("sim.events_per_window", float64(r0.events)/windows)
	res.set("sim.ns_per_event", median(nsPerEvent))
	res.set("cpu.instr_per_window", float64(r0.retired)/windows)
	res.set("cpu.ipc", float64(r0.retired)/float64(r0.cycles))
	res.set("coherence.line_table_entries", float64(r0.lineEntries))
	res.set("coherence.line_table_mb", float64(r0.lineEntries)*float64(r0.bytesPerSlot)/(1<<20))
	for i, name := range statNames {
		if name != "" {
			res.set(name, float64(r0.stats[i])*1000/float64(r0.retired))
		}
	}
	res.set("checkpoint.save_s", median(saveS))
	res.set("checkpoint.restore_s", median(restoreS))
	res.set("checkpoint.mb", float64(r0.layers.ckptBytes)/(1<<20))
	res.set("runtime.gc_cycles", median(gc))
	res.set("runtime.gc_pause_ms", median(gcPause))
	res.set("trace.overhead_pct", (median(plainMIPS)/median(tracedMIPS)-1)*100)

	rp := replay(cfg, s, r0.retired/uint64(cfg.Cores))
	res.set("cache.replay_ns_per_access", rp.cacheNSPerAccess())
	res.set("coherence.replay_ns_per_op", rp.cohNSPerOp())
	res.set("cache.replay_ns_per_instr", rp.cacheNSPerInstr())
	res.set("coherence.replay_ns_per_instr", rp.cohNSPerInstr())
	res.notef("replay: %d array accesses and %d coherence ops from %d instructions after the prewarm footprint: cache %.1f + coherence %.1f ns per instruction beside core.timed_self_ns_per_instr %.1f",
		rp.accesses, rp.cohOps, rp.instrs, rp.cacheNSPerInstr(), rp.cohNSPerInstr(), median(timedSelf))
}

// checkSingle applies the correctness checks of a single-system
// workload: the invariants after every repetition, the fixed-work
// contract across repetitions and the checkpoint round trip.
func checkSingle(reps []singleRep, res *results) {
	r0 := reps[0]
	for i, r := range reps {
		res.check(r.invariants == "", "rep %d: invariant violation: %s", i, r.invariants)
		res.check(r.retired == r0.retired, "rep %d: retired %d instructions, rep 0 %d", i, r.retired, r0.retired)
		res.check(r.events == r0.events, "rep %d: dispatched %d events, rep 0 %d", i, r.events, r0.events)
		res.check(r.lineEntries == r0.lineEntries, "rep %d: line table holds %d entries, rep 0 %d", i, r.lineEntries, r0.lineEntries)
		res.check(r.digest == r0.digest, "rep %d: stats digest %016x, rep 0 %016x", i, r.digest, r0.digest)
		if r.layers != nil {
			res.check(r.layers.roundTrip == "", "rep %d: checkpoint round trip: %s", i, r.layers.roundTrip)
		}
	}
}

// another reports whether one more repetition fits in the time budget:
// always until minReps are done, then only while the mean repetition
// still fits before the deadline.
func another(start time.Time, done, minReps int, budget time.Duration) bool {
	if done < minReps {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(done) <= budget
}

// minReps is the fewest repetitions a run makes, whatever its budget: a
// traced run's repetition is a traced and an untraced one together, and
// costs more than twice an untraced one.
func (o runOpts) minReps() int {
	if o.trace {
		return 1
	}
	return 3
}

// mips is the repetition's simulated instructions retired per host
// second of its windows, in millions.
func (r singleRep) mips() float64 {
	var ns int64
	for _, w := range r.windowNS {
		ns += w
	}
	return float64(r.retired) / float64(ns) * 1e3
}
