package experiments

import (
	"context"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ThroughputWindow is the measured window per iteration of the hot-path
// throughput probe.
const ThroughputWindow sim.Cycle = 10_000

// ThroughputSystem builds the warmed reference system that both
// BenchmarkSystemSimulationThroughput and paperbench -bench-json measure:
// a 16-core SILO machine running Web Search at Scale 32, analytically
// pre-warmed then functionally warmed. Keeping the harness in one place
// keeps BENCH_<date>.json snapshots comparable to the go test -bench
// numbers across commits.
func ThroughputSystem() *core.System { return ThroughputSystemAt(32) }

// ThroughputSystemAt is ThroughputSystem at an arbitrary capacity scale.
// Scale 32 is the cache-resident regime of the historical snapshots;
// Scale 1-4 is the paper-scale regime — multi-GB aggregate vault
// capacity, coherence line tables with millions of live entries — that
// the compact-slot stores target (DESIGN.md §8's scale note).
func ThroughputSystemAt(scale int64) *core.System {
	sys, _ := throughputSystemCkpt(scale, "", nil)
	return sys
}

// throughputWarmInstr is the probe harness's functional warm-up length.
const throughputWarmInstr = 100_000

// throughputSystemCkpt is ThroughputSystemAt through the shared warm
// harness, optionally restoring from / saving to a checkpoint dir.
func throughputSystemCkpt(scale int64, ckptDir string, cs *CheckpointStats) (*core.System, WarmInfo) {
	cfg := core.SILOConfig(16)
	cfg.Scale = scale
	return buildWarm(context.Background(), cfg, []workload.Spec{workload.WebSearch()}, throughputWarmInstr, ckptDir, cs, nil)
}

// PaperScales are the capacity scales the paper-scale throughput probe
// measures: Scale 1 is the paper's exact footprint (4GB aggregate vault
// capacity on 16 cores), Scale 4 the cheapest point still in the
// multi-million-entry table regime.
var PaperScales = []int64{1, 4}

// PaperScalePoint is one scale's measurement from RunPaperScaleProbe.
type PaperScalePoint struct {
	Scale int64 `json:"scale"`
	// NsPerOp is the best-round wall time per ThroughputWindow iteration
	// (the go test -bench convention, comparable to system_throughput).
	NsPerOp      float64 `json:"ns_per_op"`
	InstrPerIter float64 `json:"instr_per_iter"`
	// Line-table regime evidence: live coherence entries after warm-up +
	// measurement, the store's inline bytes per slot, and their product
	// (the live inline table footprint on the host).
	LineTableEntries int   `json:"line_table_entries"`
	BytesPerSlot     int   `json:"bytes_per_slot"`
	LineTableBytes   int64 `json:"line_table_bytes"`
	// WarmupSec is the host cost of building the warmed system — at paper
	// scale it dominates, which is why the probe measures few rounds.
	WarmupSec float64 `json:"warmup_sec"`
	// RestoreSec is the wall time of restoring the warmed system from a
	// checkpoint, and CheckpointHit records whether a restore happened.
	// Zero/false when no checkpoint dir was configured or on a cold miss;
	// WarmupSec then carries the cold build cost as before.
	RestoreSec    float64 `json:"restore_sec"`
	CheckpointHit bool    `json:"checkpoint_hit"`
}

// RunPaperScaleProbe builds the throughput harness at the given scale and
// measures it exactly like the Scale-32 throughput probe: minWall-long
// rounds of ThroughputWindow iterations, best round reported. rounds is
// small (2) and minWall short (500ms) because paper-scale warm-up, not
// measurement, dominates the probe's host cost.
func RunPaperScaleProbe(scale int64) PaperScalePoint {
	return RunPaperScaleProbeCkpt(scale, "", nil)
}

// RunPaperScaleProbeCkpt is RunPaperScaleProbe with warm-state
// checkpointing: when ckptDir is non-empty the warmed system is
// restored from a prior run's checkpoint if one matches (recorded in
// RestoreSec/CheckpointHit) and saved after a cold build.
func RunPaperScaleProbeCkpt(scale int64, ckptDir string, cs *CheckpointStats) PaperScalePoint {
	p := PaperScalePoint{Scale: scale}
	sys, wi := throughputSystemCkpt(scale, ckptDir, cs)
	p.WarmupSec = wi.WarmupSec
	p.RestoreSec = wi.RestoreSec
	p.CheckpointHit = wi.Hit

	const (
		rounds  = 2
		minWall = 500 * time.Millisecond
	)
	var iters int
	var retired uint64
	best := bestOfRounds(rounds, minWall, func() {
		m := sys.Run(0, ThroughputWindow)
		retired += m.Retired
		iters++
	})
	p.NsPerOp = best
	p.InstrPerIter = float64(retired) / float64(iters)
	p.LineTableEntries, p.BytesPerSlot = sys.LineTable()
	p.LineTableBytes = int64(p.LineTableEntries) * int64(p.BytesPerSlot)
	return p
}

// bestOfRounds runs rounds of minWall-long iteration loops and returns the
// best round's ns per iteration — the go test -bench-style measurement the
// throughput probes share.
func bestOfRounds(rounds int, minWall time.Duration, iter func()) float64 {
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		roundIters := 0
		start := time.Now()
		for time.Since(start) < minWall {
			iter()
			roundIters++
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(roundIters); ns < best {
			best = ns
		}
	}
	return best
}

// SchedulerProbeEvents is the number of events one scheduler probe run
// schedules and dispatches.
const SchedulerProbeEvents = 1 << 20

// RunSchedulerProbe drives the given event-queue implementation through the
// simulator's canonical event mix — a steady population of in-flight events
// completing at vault/LLC-scale short delays, with a sprinkling of
// far-future events that exercise the calendar queue's overflow path — and
// returns the events executed (SchedulerProbeEvents plus the drained
// steady-state population; callers time the call and divide). bench_test.go
// and paperbench -bench-json share this probe so
// BENCH_<date>.json scheduler numbers stay comparable to go test -bench
// output.
func RunSchedulerProbe(kind sim.SchedulerKind) uint64 {
	e := sim.NewEngineWithScheduler(kind)
	fn := func(uint64) {}
	const population = 512
	for i := 0; i < population; i++ {
		e.ScheduleArg(sim.Cycle(i%48+1), fn, 0)
	}
	start := e.Executed()
	for i := 0; i < SchedulerProbeEvents; i++ {
		delay := sim.Cycle(i%48 + 1) // vault access scale (paper Table II: ~23)
		if i%64 == 0 {
			delay = sim.Cycle(i%1500 + 300) // refresh/idle-timer scale
		}
		e.ScheduleArg(delay, fn, uint64(i))
		e.Step()
	}
	e.RunAll()
	return e.Executed() - start
}

// ArrayProbeOps is the number of cache-array accesses one array probe run
// performs.
const ArrayProbeOps = 1 << 20

// RunArrayProbe drives cache.Array through the simulator's canonical
// access mix — a hot L1-shaped array (mostly hits: probe + touch) and a
// large direct-mapped vault-shaped array (the SILO LLC slice: probe, then
// fill on miss) — and returns the accesses performed. bench_test.go
// (BenchmarkArrayProbe) and paperbench -bench-json share this probe so
// BENCH_<date>.json array numbers stay comparable to go test -bench
// output.
func RunArrayProbe() uint64 {
	l1 := cache.NewArray(2<<10, 8, cache.LRU)    // scaled L1 shape
	vault := cache.NewArray(8<<20, 1, cache.LRU) // scaled 256MB vault at Scale 32
	rng := sim.NewRNG(0x5EED)
	l1Lines := uint64(l1.SizeBytes()/mem.LineSize) * 2 // 2x capacity: conflicts
	vaultLines := uint64(vault.SizeBytes()/mem.LineSize) * 2
	for i := 0; i < ArrayProbeOps; i++ {
		if i%4 != 0 {
			// L1 traffic: hit-dominated probe+touch, insert on miss.
			line := mem.LineAddr(rng.Uint64n(l1Lines) * mem.LineSize)
			if w := l1.Probe(line); w != cache.NoWay {
				l1.TouchWay(w)
			} else {
				l1.InsertAt(line, cache.Shared)
			}
		} else {
			// Vault traffic: direct-mapped probe, streaming fills demoted.
			line := mem.LineAddr(rng.Uint64n(vaultLines) * mem.LineSize)
			if w := vault.Probe(line); w != cache.NoWay {
				vault.TouchWay(w)
			} else {
				w, _, _ := vault.InsertAt(line, cache.Shared)
				if i%16 == 0 {
					vault.DemoteWay(w)
				}
			}
		}
	}
	return ArrayProbeOps
}

// StreamProbeOps is the number of trace ops one stream probe run
// generates.
const StreamProbeOps = 1 << 20

// streamProbeBatch matches the cpu core's refill size so the batched
// probe measures exactly the path the simulation hot loop pays.
const streamProbeBatch = 16

// RunStreamProbe drives the workload trace generator through the
// simulator's canonical stream (Web Search at Scale 32, a 16-core
// system's core 0) either op by op (Next, the serial reference) or
// through the batched refill path (NextBatch) the cpu core consumes
// from, and returns the ops generated. Both paths produce bit-identical
// op sequences (workload.TestNextBatchMatchesNext); the probe exists to
// quantify the batching win. bench_test.go (BenchmarkStreamProbe*) and
// paperbench -bench-json share it so BENCH_<date>.json stream numbers
// stay comparable to go test -bench output.
func RunStreamProbe(batched bool) uint64 {
	st := workload.NewStream(workload.WebSearch(), 0, 16, 32, 0x5EED)
	if batched {
		var buf [streamProbeBatch]workload.Op
		for n := 0; n < StreamProbeOps; n += streamProbeBatch {
			st.NextBatch(buf[:])
		}
	} else {
		var op workload.Op
		for n := 0; n < StreamProbeOps; n++ {
			st.Next(&op)
		}
	}
	return StreamProbeOps
}

// CoherenceTableOps is the number of coherence operations one table probe
// run performs.
const CoherenceTableOps = 1 << 20

// RunCoherenceTableProbe drives both coherence substrates — the MOESI
// directory and the MESI snoop filter — through a read/share/write/evict
// cycle over a line population large enough to exercise the store's
// growth and deletion paths, on the given store implementation. Returns
// the operations performed; bench_test.go (BenchmarkCoherenceTable*) and
// paperbench -bench-json share it.
func RunCoherenceTableProbe(kind coherence.StoreKind) uint64 {
	const cores = 16
	const lines = 1 << 16
	dir := coherence.NewDirectoryWithStore(cores, coherence.MOESI, kind)
	snoop := coherence.NewSnoopFilterWithStore(cores, kind)
	// 7 store-touching operations per iteration: the StateOf guard always
	// probes, and the guarded Read always fires in steady state because
	// the preceding iteration's Evict emptied the line's entry.
	for i := 0; i < CoherenceTableOps/7; i++ {
		line := mem.LineAddr(uint64(i%lines) * mem.LineSize)
		r := i % cores
		w := (i + 7) % cores
		if dir.StateOf(line, r) == cache.Invalid {
			dir.Read(line, r)
		}
		dir.WriteMask(line, w)
		dir.Evict(line, w)
		snoop.Read(line, r)
		snoop.WriteMask(line, w)
		snoop.Evict(line, w, false)
	}
	return CoherenceTableOps / 7 * 7
}
