// Command paperbench regenerates every table and figure of the paper's
// evaluation. By default it runs in quick mode; -full uses paper-scale
// measurement windows. -only selects a single experiment (e.g. -only
// fig10). -parallel bounds the experiment runner's worker pool (0 = all
// cores). -bench-json skips the tables and instead writes a
// BENCH_<date>.json performance snapshot (simulator hot-path throughput
// plus the Fig 10 suite) for tracking the perf trajectory across commits.
//
// -grid switches to batch mode: instead of the paper's figures it runs an
// arbitrary (system x workload x config-override) cell grid and streams
// one JSON-lines record per completed cell to stdout — aggregate IPC,
// per-window IPC distribution with t-based confidence intervals, hit
// rates — in deterministic enumeration order at any -parallel level. See
// grid.go for the spec syntax.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/coherence"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/robust"
	"repro/internal/sim"
)

// cliConfig is the parsed flag set.
type cliConfig struct {
	full            bool
	only            string
	parallel        int
	genThreads      int
	benchJSON       bool
	benchBaseline   string
	checkpointDir   string
	checkpointLS    bool
	checkpointGC    int
	grid            string
	scenario        string
	scenarioSystems string
	recordTrace     string
	recordWorkload  string
	recordOps       int
	maskWallMS      bool
	gridWindows     int
	gridConfidence  float64
	gridOut         string
	journal         string
	resume          bool
	resumeShards    string
	cellDeadline    time.Duration
	retries         int
	retryBackoff    time.Duration
	onError         string
	serve           string
	worker          string
	workerID        string
	leaseTTL        time.Duration
	leaseCells      int
	soloAfter       time.Duration
	maxOffline      time.Duration
	cpuprofile      string
	memprofile      string
}

func main() {
	var c cliConfig
	flag.BoolVar(&c.full, "full", false, "use paper-scale measurement windows")
	flag.StringVar(&c.only, "only", "", "run a single experiment (fig1, fig2, fig3, fig4, fig7, fig8, table1, fig10, fig11, fig12, fig13, fig14, fig15, table6, fig16)")
	flag.IntVar(&c.parallel, "parallel", 0, "experiment worker pool size (0 = all cores, 1 = sequential)")
	flag.IntVar(&c.genThreads, "gen-threads", 0, "per-simulation trace-generation goroutines feeding the cores' op rings (0 = synchronous in-thread generation; results are bit-identical at any value)")
	flag.BoolVar(&c.benchJSON, "bench-json", false, "write a BENCH_<date>.json performance snapshot and exit (never clobbers an existing snapshot: a b/c/... suffix is added)")
	flag.StringVar(&c.benchBaseline, "bench-baseline", "", "with -bench-json: compare the new snapshot's probe metrics against this baseline BENCH_*.json and exit non-zero on a >2x regression (the CI gate)")
	flag.StringVar(&c.checkpointDir, "checkpoint-dir", "", "restore warmed systems from this directory when a matching warm-state checkpoint exists, and save one after every cold warm-up (DESIGN.md §11); results are bit-identical either way")
	flag.BoolVar(&c.checkpointLS, "checkpoint-ls", false, "with -checkpoint-dir: list the directory's checkpoints (key, size, age, header metadata) and exit")
	flag.IntVar(&c.checkpointGC, "checkpoint-gc", -1, "with -checkpoint-dir: prune checkpoints older than N days or with a stale/corrupt format header, then exit (0 prunes everything)")
	flag.StringVar(&c.grid, "grid", "", `batch mode: stream a (system x workload x override) grid as JSON-lines, e.g. "systems=Baseline,SILO;workloads=WebSearch,DataServing;overrides=scale=64|llc_mb=64"`)
	flag.StringVar(&c.scenario, "scenario", "", `run a declarative scenario spec file (YAML/JSON; DESIGN.md §14) as a sweep: shorthand for -grid "systems=<-scenario-systems>;scenarios=<file>", so every -grid companion flag (-journal, -resume, -grid-out, -serve, ...) applies`)
	flag.StringVar(&c.scenarioSystems, "scenario-systems", "SILO", "with -scenario: comma-separated system names the scenario runs on")
	flag.StringVar(&c.recordTrace, "record-trace", "", "record a workload address trace to this file (RPT1 format, atomic write) and exit; the recording is core 0 of a 1-core stream at scale 16, seed 1, so replays are reproducible from the flag values alone")
	flag.StringVar(&c.recordWorkload, "record-workload", "WebSearch", "with -record-trace: workload preset to record (scale-out, enterprise and SPEC CPU2006 names)")
	flag.IntVar(&c.recordOps, "record-ops", 200000, "with -record-trace: number of ops to record")
	flag.BoolVar(&c.maskWallMS, "mask-wall-ms", false, `filter stdin to stdout zeroing every "wall_ms" field — the canonical normalizer for byte-comparing grid outputs (replaces ad-hoc sed in CI)`)
	flag.IntVar(&c.gridWindows, "grid-windows", 0, "with -grid: measurement windows per cell (the CI sample count; 0 = default)")
	flag.Float64Var(&c.gridConfidence, "grid-confidence", 0, "with -grid: confidence level for the per-cell IPC interval (0 = 0.95)")
	flag.StringVar(&c.gridOut, "grid-out", "", "with -grid: write the JSON-lines to this file atomically (temp file + rename on completion) instead of stdout")
	flag.StringVar(&c.journal, "journal", "", "with -grid: append each completed cell to this crash-safe journal (fsync'd JSON lines keyed by a content hash of the cell + mode + code version)")
	flag.BoolVar(&c.resume, "resume", false, "with -grid -journal: skip cells already in the journal, re-emitting their records — a killed sweep continues where it stopped")
	flag.DurationVar(&c.cellDeadline, "cell-deadline", 0, "with -grid: per-cell wall-clock watchdog; a cell exceeding it is recorded as timed out (0 = no deadline)")
	flag.IntVar(&c.retries, "retries", 0, "with -grid: deterministic re-attempts for a panicked or timed-out cell before it counts as permanently failed")
	flag.DurationVar(&c.retryBackoff, "retry-backoff", 500*time.Millisecond, "with -grid: base of the capped exponential retry backoff (doubles per retry, capped at 30s)")
	flag.StringVar(&c.onError, "on-error", "fail", "with -grid: fail = abort the sweep on the first permanently failed cell; skip = record a structured error for it and continue")
	flag.StringVar(&c.serve, "serve", "", "distributed sweep coordinator: listen on this address (e.g. :9377) and hand -grid cells to -worker processes as lease batches; output is byte-identical to a single-process -grid run (DESIGN.md §13)")
	flag.StringVar(&c.worker, "worker", "", "distributed sweep worker: join the coordinator at this URL (e.g. http://host:9377), lease cells and stream records back; the grid and failure policy come from the coordinator")
	flag.StringVar(&c.workerID, "worker-id", "", "with -worker: identity used in leases and logs (default host:pid)")
	flag.DurationVar(&c.leaseTTL, "lease-ttl", 10*time.Second, "with -serve: lease lifetime without a heartbeat or report; an expired lease's cells are reassigned to surviving workers")
	flag.IntVar(&c.leaseCells, "lease-cells", 1, "with -serve: cells handed out per lease")
	flag.DurationVar(&c.soloAfter, "solo-after", 0, "with -serve: finish remaining cells in-process when no worker has been heard from for this long (0 = 4x lease-ttl, negative = never)")
	flag.DurationVar(&c.maxOffline, "max-offline", 2*time.Minute, "with -worker: give up after the coordinator has been unreachable this long")
	flag.StringVar(&c.resumeShards, "resume-shards", "", "with -serve -resume: comma-separated worker shard journals to merge into the resume set (salvage from crashed workers)")
	flag.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (pprof evidence for perf PRs)")
	flag.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	// Work happens in run() so the profile-flushing defers execute before
	// os.Exit.
	os.Exit(run(c))
}

// validateSetFlags rejects nonsensical values of explicitly-set flags at
// parse time with a usage hint, before any simulation work starts — the
// same up-front treatment -parallel/-gen-threads get. flag.Visit walks
// only flags the user actually set, so defaults (e.g. -cell-deadline 0 =
// watchdog disabled) stay legal while an explicit `-cell-deadline 0`
// (which would silently disable the watchdog the user just asked for) is
// refused. Returns a usage message, or "" when everything is sane.
func validateSetFlags(c cliConfig) string {
	msg := ""
	flag.Visit(func(f *flag.Flag) {
		if msg != "" {
			return
		}
		switch f.Name {
		case "cell-deadline":
			if c.cellDeadline <= 0 {
				msg = fmt.Sprintf("-cell-deadline %v is not positive — pass a duration like 90s, or drop the flag to disable the watchdog", c.cellDeadline)
			}
		case "retries":
			if c.retries < 0 {
				msg = fmt.Sprintf("-retries %d is negative (0 = no retries, N = N re-attempts per failed cell)", c.retries)
			}
		case "retry-backoff":
			if c.retryBackoff <= 0 {
				msg = fmt.Sprintf("-retry-backoff %v is not positive — pass a duration like 500ms (it doubles per retry, capped at 30s)", c.retryBackoff)
			}
		case "lease-ttl":
			if c.leaseTTL <= 0 {
				msg = fmt.Sprintf("-lease-ttl %v is not positive — workers heartbeat at a third of it, so it must be a real duration like 10s", c.leaseTTL)
			}
		case "lease-cells":
			if c.leaseCells <= 0 {
				msg = fmt.Sprintf("-lease-cells %d is not positive (N = cells per lease batch)", c.leaseCells)
			}
		case "max-offline":
			if c.maxOffline <= 0 {
				msg = fmt.Sprintf("-max-offline %v is not positive — pass how long a worker should outlive a coordinator outage, like 2m", c.maxOffline)
			}
		case "record-ops":
			if c.recordOps <= 0 {
				msg = fmt.Sprintf("-record-ops %d is not positive (N = ops written to the trace)", c.recordOps)
			}
		case "scenario-systems":
			if strings.TrimSpace(c.scenarioSystems) == "" {
				msg = "-scenario-systems is empty — pass comma-separated system names like SILO,Baseline"
			}
		}
	})
	return msg
}

func run(c cliConfig) int {
	// Reject negative knob values up front with a usage hint (the GridSpec
	// Validate treatment): a negative pool or thread count would otherwise
	// panic deep inside a run, or silently mean something it doesn't.
	if c.parallel < 0 {
		fmt.Fprintf(os.Stderr, "paperbench: -parallel %d is negative (0 = all cores, 1 = sequential, N = N workers)\n", c.parallel)
		return 2
	}
	if c.genThreads < 0 {
		fmt.Fprintf(os.Stderr, "paperbench: -gen-threads %d is negative (0 = synchronous generation, N = N producer goroutines per simulation)\n", c.genThreads)
		return 2
	}
	if msg := validateSetFlags(c); msg != "" {
		fmt.Fprintf(os.Stderr, "paperbench: %s\n", msg)
		return 2
	}
	if c.serve != "" && c.worker != "" {
		fmt.Fprintln(os.Stderr, "paperbench: -serve and -worker are mutually exclusive — a process is a coordinator or a worker, not both")
		return 2
	}
	if c.maskWallMS {
		// A pure stdin->stdout filter: no simulation, no profiles.
		return runMaskWallMS(os.Stdin, os.Stdout)
	}
	if c.recordTrace != "" {
		return runRecordTrace(c)
	}
	if c.scenario != "" {
		if c.grid != "" {
			fmt.Fprintln(os.Stderr, `paperbench: -scenario and -grid are mutually exclusive — scenarios= is a grid axis, so use -grid "...;scenarios=FILE" to combine them with other axes`)
			return 2
		}
		arg, err := scenarioGridArg(c.scenario, c.scenarioSystems)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			return 2
		}
		c.grid = arg
	}
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if c.memprofile != "" {
		defer func() {
			f, err := os.Create(c.memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if c.checkpointLS || c.checkpointGC >= 0 {
		if c.checkpointDir == "" {
			fmt.Fprintln(os.Stderr, "checkpoint: -checkpoint-ls/-checkpoint-gc need -checkpoint-dir <dir>")
			return 2
		}
		if c.checkpointLS {
			return runCheckpointLS(c.checkpointDir)
		}
		return runCheckpointGC(c.checkpointDir, c.checkpointGC)
	}

	mode := experiments.Quick()
	if c.full {
		mode = experiments.Full()
	}
	mode.Parallelism = c.parallel
	mode.GenThreads = c.genThreads
	var ckptStats experiments.CheckpointStats
	if c.checkpointDir != "" {
		mode.CheckpointDir = c.checkpointDir
		mode.Checkpoints = &ckptStats
		defer func() {
			fmt.Fprintf(os.Stderr, "[checkpoint: restored %d, cold %d, saved %d (%d save errors), %d waited for another cell's warm-up, in %s]\n",
				ckptStats.Hits.Load(), ckptStats.Misses.Load(), ckptStats.Saves.Load(), ckptStats.SaveErrs.Load(), ckptStats.Waits.Load(), c.checkpointDir)
		}()
	}

	if c.benchJSON {
		if err := writeBenchSnapshot(mode, c.benchBaseline); err != nil {
			fmt.Fprintf(os.Stderr, "bench snapshot: %v\n", err)
			return 1
		}
		return 0
	}

	if c.worker != "" {
		return runWorker(c, mode)
	}
	if c.serve != "" {
		return runServe(c, mode)
	}
	if c.grid != "" {
		return runGrid(c, mode)
	}
	only := c.only

	runners := []struct {
		name string
		fn   func() string
	}{
		{"fig1", func() string { return experiments.Fig1(mode).String() }},
		{"fig2", func() string { return experiments.Fig2(mode).String() }},
		{"fig3", func() string { return experiments.Fig3(mode).String() }},
		{"fig4", func() string { return experiments.Fig4(mode).String() }},
		{"fig7", experiments.Fig7String},
		{"fig8", func() string { return experiments.Fig8().String() }},
		{"table1", experiments.Table1String},
		{"fig10", func() string { return experiments.Fig10(mode).String() }},
		{"fig11", func() string { return experiments.Fig11(mode).String() }},
		{"fig12", func() string { return experiments.Fig12(mode).String() }},
		{"fig13", func() string { return experiments.Fig13(mode).String() }},
		{"fig14", func() string { return experiments.Fig14(mode).String() }},
		{"fig15", func() string { return experiments.Fig15(mode).String() }},
		{"table6", func() string { return experiments.Table6(mode).String() }},
		{"fig16", func() string { return experiments.Fig16(mode).String() }},
	}

	matched := false
	for _, r := range runners {
		if only != "" && !strings.EqualFold(only, r.name) {
			continue
		}
		matched = true
		start := time.Now()
		out := r.fn()
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[%s took %v]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", only)
		return 2
	}
	return 0
}

// runGrid is batch mode with the fault-tolerance layer: per-cell
// isolation (-on-error), retry/backoff (-retries), watchdog
// (-cell-deadline), crash-safe journal + resume (-journal/-resume),
// SIGINT/SIGTERM graceful shutdown, and atomic output (-grid-out).
func runGrid(c cliConfig, mode experiments.Mode) int {
	if c.gridConfidence != 0 && (c.gridConfidence <= 0 || c.gridConfidence >= 1) {
		fmt.Fprintf(os.Stderr, "grid: -grid-confidence %v outside (0,1) — e.g. 0.95, not a percentage\n", c.gridConfidence)
		return 2
	}
	if c.gridWindows < 0 || sim.Cycle(c.gridWindows) > mode.MeasureCycles {
		fmt.Fprintf(os.Stderr, "grid: -grid-windows %d outside [0, %d] (each window needs at least one of the mode's %d measure cycles)\n",
			c.gridWindows, mode.MeasureCycles, mode.MeasureCycles)
		return 2
	}
	policy, err := robust.ParseFailPolicy(c.onError)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grid: -on-error: %v\n", err)
		return 2
	}
	if c.retries < 0 {
		fmt.Fprintf(os.Stderr, "grid: -retries %d is negative\n", c.retries)
		return 2
	}
	if c.resume && c.journal == "" {
		fmt.Fprintf(os.Stderr, "grid: -resume needs -journal <file> (the journal is what a resumed sweep reads)\n")
		return 2
	}
	g, err := parseGridSpec(c.grid, c.gridWindows, c.gridConfidence)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grid: %v\n", err)
		return 2
	}

	opts := experiments.GridOptions{
		OnError:      policy,
		Retries:      c.retries,
		Backoff:      robust.Backoff{Base: c.retryBackoff, Cap: 30 * time.Second},
		CellDeadline: c.cellDeadline,
		Resume:       c.resume,
	}
	if c.journal != "" {
		j, err := robust.OpenJournal(c.journal)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grid: %v\n", err)
			return 1
		}
		defer j.Close()
		if c.resume {
			if d := j.DroppedBytes(); d > 0 {
				fmt.Fprintf(os.Stderr, "[grid: journal %s: dropped %d bytes of torn tail]\n", c.journal, d)
			}
			fmt.Fprintf(os.Stderr, "[grid: resuming — %d journaled cell(s)]\n", j.Len())
		} else if err := j.Clear(); err != nil {
			// Without -resume the sweep starts fresh; stale entries must
			// not linger (they would match on an identical re-run).
			fmt.Fprintf(os.Stderr, "grid: %v\n", err)
			return 1
		}
		opts.Journal = j
	}

	// SIGINT/SIGTERM cancel the sweep gracefully: workers stop claiming
	// cells, in-flight cells drain (and journal), emitted output stands.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out := os.Stdout
	tmpName := ""
	if c.gridOut != "" {
		// Stream into a same-directory temp file; only a completed sweep
		// is renamed into place, so a crash never leaves a truncated
		// output under the real name.
		tmp, err := os.CreateTemp(filepath.Dir(c.gridOut), filepath.Base(c.gridOut)+".tmp-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "grid: %v\n", err)
			return 1
		}
		out = tmp
		tmpName = tmp.Name()
		defer func() {
			if tmpName != "" { // not committed: discard the partial file
				tmp.Close()
				os.Remove(tmpName)
			}
		}()
	}

	start := time.Now()
	emitted, failed := 0, 0
	enc := json.NewEncoder(out)
	var encErr error
	err = experiments.RunGridStreamOpts(ctx, g, mode, opts, func(r experiments.GridCellResult) bool {
		if encErr = enc.Encode(r); encErr != nil {
			return false
		}
		emitted++
		if r.Error != nil {
			failed++
		}
		return true
	})
	if encErr != nil {
		fmt.Fprintf(os.Stderr, "grid: %v\n", encErr)
		return 1
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			hint := ""
			if c.journal != "" {
				hint = fmt.Sprintf("; journaled progress survives — rerun with -journal %s -resume", c.journal)
			}
			fmt.Fprintf(os.Stderr, "grid: interrupted after %d of %d cells%s\n", emitted, g.Cells(), hint)
			return 130
		}
		fmt.Fprintf(os.Stderr, "grid: %v\n", err)
		return 1
	}
	if c.gridOut != "" {
		if err := out.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "grid: %v\n", err)
			return 1
		}
		if err := robust.CommitFile(tmpName, c.gridOut); err != nil {
			fmt.Fprintf(os.Stderr, "grid: %v\n", err)
			return 1
		}
		tmpName = ""
	}
	failNote := ""
	if failed > 0 {
		failNote = fmt.Sprintf(", %d failed (structured error records)", failed)
	}
	fmt.Fprintf(os.Stderr, "[grid: %d cells in %v%s]\n", g.Cells(), time.Since(start).Round(time.Millisecond), failNote)
	return 0
}

// benchSnapshot is the schema of BENCH_<date>.json. ns/op figures follow
// the go test -bench convention so snapshots are comparable to
// BenchmarkSystemSimulationThroughput and BenchmarkFig10ScaleOut output.
type benchSnapshot struct {
	Date        string `json:"date"`
	Mode        string `json:"mode"` // quick or full; full fig10 numbers are not comparable to quick ones
	GoMaxProcs  int    `json:"go_max_procs"`
	Parallelism int    `json:"parallelism"`
	// Host records the machine the snapshot was measured on, so
	// cross-machine comparisons (dev box vs CI runner phases) carry their
	// own context instead of relying on CHANGES.md folklore. NumCPU also
	// says whether the gen_overlap ring numbers could show a win at all
	// (a 1-CPU host can only show the handoff overhead).
	Host struct {
		NumCPU     int    `json:"num_cpu"`
		GoMaxProcs int    `json:"go_max_procs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	// Scheduler is the engine's event-queue implementation (the default for
	// every system the snapshot measures).
	Scheduler string `json:"scheduler"`

	// SchedulerProbe compares the event-queue implementations on the
	// canonical event mix (experiments.RunSchedulerProbe), mirroring
	// BenchmarkSchedulerProbeCalendar/Heap.
	SchedulerProbe struct {
		CalendarNsPerEvent float64 `json:"calendar_ns_per_event"`
		HeapNsPerEvent     float64 `json:"heap_ns_per_event"`
	} `json:"scheduler_probe"`

	// ArrayProbe times the cache-array fast path on the canonical L1 +
	// direct-mapped-vault mix (experiments.RunArrayProbe), mirroring
	// BenchmarkArrayProbe.
	ArrayProbe struct {
		NsPerAccess float64 `json:"ns_per_access"`
	} `json:"array_probe"`

	// CoherenceTable compares the coherence substrates' store
	// implementations on the canonical directory + snoop cycle
	// (experiments.RunCoherenceTableProbe), mirroring
	// BenchmarkCoherenceTableQuot/Open/Map. BytesPerSlot is the inline
	// slot footprint of the default store for the measured 16-core
	// systems (8 B for the quotient-compressed table, DESIGN.md §8).
	CoherenceTable struct {
		QuotNsPerOp  float64 `json:"quot_ns_per_op"`
		OpenNsPerOp  float64 `json:"open_ns_per_op"`
		MapNsPerOp   float64 `json:"map_ns_per_op"`
		BytesPerSlot int     `json:"bytes_per_slot"`
	} `json:"coherence_table"`

	// StreamProbe compares trace generation per op through the serial
	// (Next) and batched (NextBatch, what the cpu core consumes) paths
	// (experiments.RunStreamProbe), mirroring BenchmarkStreamProbe*.
	StreamProbe struct {
		SerialNsPerOp  float64 `json:"serial_ns_per_op"`
		BatchedNsPerOp float64 `json:"batched_ns_per_op"`
	} `json:"stream_probe"`

	// SystemThroughput mirrors BenchmarkSystemSimulationThroughput: a
	// warmed 16-core SILO system running Web Search, measured in 10K-cycle
	// windows over three ~1s rounds. Iters and NsPerOp describe the best
	// round (like the probes, best-of sheds scheduling noise), so
	// Iters*NsPerOp reconstructs that round's wall time; InstrPerIter,
	// EventsPerSec and AllocsPerOp (the steady-state allocation guard)
	// are computed over all rounds.
	SystemThroughput struct {
		Iters        int     `json:"iters"`
		NsPerOp      float64 `json:"ns_per_op"`
		InstrPerIter float64 `json:"instr_per_iter"`
		EventsPerSec float64 `json:"events_per_sec"`
		AllocsPerOp  float64 `json:"allocs_per_op"`
	} `json:"system_throughput"`

	// SystemThroughputPaperScale measures the same throughput window at
	// paper-scale footprints (experiments.PaperScales; Scale 1 is the
	// paper's 4GB aggregate vault capacity) — the multi-million-entry
	// line-table regime the compact coherence slots target (DESIGN.md
	// §8-§9). Each point records the table occupancy it measured.
	SystemThroughputPaperScale []experiments.PaperScalePoint `json:"system_throughput_paperscale"`

	// GenOverlap compares synchronous and off-thread trace generation
	// (experiments.RunGenOverlapProbe) at the paper-scale points: cold
	// warm-up wall time and timed-phase ns/op, serial vs ring. The ring
	// numbers are regression-gated like every probe; interpret them
	// against Host.NumCPU.
	GenOverlap []experiments.GenOverlapPoint `json:"gen_overlap"`

	// DistSweep measures the distributed runner end to end
	// (dist.RunSweepProbe): coordinator + N in-process workers over real
	// loopback HTTP on a fixed 12-cell grid, at 1 and 2 workers.
	// ns_per_cell is regression-gated per worker count; the 1-vs-2
	// spread shows whether lease/report overhead swamps the parallelism
	// win.
	DistSweep []dist.SweepPoint `json:"dist_sweep"`

	// Fig10 is one Fig 10 suite run (5 systems x 8 workloads) through the
	// concurrent runner, under the selected mode (see the "mode" field —
	// quick and full snapshots are not comparable to each other).
	Fig10 struct {
		NsPerOp      float64 `json:"ns_per_op"`
		SiloGeomeanX float64 `json:"silo_geomean_x"`
	} `json:"fig10"`
}

// writeBenchSnapshot measures the headline performance numbers and writes
// them to BENCH_<date>.json in the current directory (suffixing b/c/...
// when a snapshot for the date already exists, so the trajectory keeps
// every point; see snapshotName for why the suffixes are letters). With a baseline it then gates: any probe metric more than
// benchRegressionFactor slower than the baseline's fails the run.
func writeBenchSnapshot(mode experiments.Mode, baseline string) error {
	var snap benchSnapshot
	snap.Date = time.Now().Format("2006-01-02")
	snap.Mode = mode.Name
	snap.GoMaxProcs = runtime.GOMAXPROCS(0)
	snap.Parallelism = mode.Parallelism
	snap.Host.NumCPU = runtime.NumCPU()
	snap.Host.GoMaxProcs = runtime.GOMAXPROCS(0)
	snap.Host.GoVersion = runtime.Version()
	snap.Scheduler = sim.NewEngine().SchedulerName()

	// Per-op probe timing: best of three runs to shed scheduling noise.
	bestOf := func(run func() uint64) float64 {
		best := math.Inf(1)
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			ops := run()
			if ns := float64(time.Since(t0).Nanoseconds()) / float64(ops); ns < best {
				best = ns
			}
		}
		return best
	}

	// Event-queue comparison on the canonical mix.
	snap.SchedulerProbe.CalendarNsPerEvent = bestOf(func() uint64 {
		return experiments.RunSchedulerProbe(sim.CalendarQueue)
	})
	snap.SchedulerProbe.HeapNsPerEvent = bestOf(func() uint64 {
		return experiments.RunSchedulerProbe(sim.BinaryHeap)
	})
	snap.ArrayProbe.NsPerAccess = bestOf(experiments.RunArrayProbe)
	snap.CoherenceTable.QuotNsPerOp = bestOf(func() uint64 {
		return experiments.RunCoherenceTableProbe(coherence.QuotTable)
	})
	snap.CoherenceTable.OpenNsPerOp = bestOf(func() uint64 {
		return experiments.RunCoherenceTableProbe(coherence.OpenTable)
	})
	snap.CoherenceTable.MapNsPerOp = bestOf(func() uint64 {
		return experiments.RunCoherenceTableProbe(coherence.MapStore)
	})
	snap.CoherenceTable.BytesPerSlot = coherence.DefaultStore(16).BytesPerSlot()
	snap.StreamProbe.SerialNsPerOp = bestOf(func() uint64 { return experiments.RunStreamProbe(false) })
	snap.StreamProbe.BatchedNsPerOp = bestOf(func() uint64 { return experiments.RunStreamProbe(true) })

	// Hot-path throughput: the same warmed system and window as
	// BenchmarkSystemSimulationThroughput, best of three ~1s rounds.
	sys := experiments.ThroughputSystem()
	const minWall = time.Second
	var (
		iters   int
		retired uint64
		memBeg  runtime.MemStats
		memEnd  runtime.MemStats
	)
	evStart := sys.Engine().Executed()
	evWall := time.Duration(0)
	runtime.ReadMemStats(&memBeg)
	best := math.Inf(1)
	bestIters := 0
	for round := 0; round < 3; round++ {
		roundIters := 0
		start := time.Now()
		for time.Since(start) < minWall {
			m := sys.Run(0, experiments.ThroughputWindow)
			retired += m.Retired
			iters++
			roundIters++
		}
		wall := time.Since(start)
		evWall += wall
		if ns := float64(wall.Nanoseconds()) / float64(roundIters); ns < best {
			best = ns
			bestIters = roundIters
		}
	}
	runtime.ReadMemStats(&memEnd)
	snap.SystemThroughput.Iters = bestIters
	snap.SystemThroughput.NsPerOp = best
	snap.SystemThroughput.InstrPerIter = float64(retired) / float64(iters)
	snap.SystemThroughput.EventsPerSec = float64(sys.Engine().Executed()-evStart) / evWall.Seconds()
	snap.SystemThroughput.AllocsPerOp = float64(memEnd.Mallocs-memBeg.Mallocs) / float64(iters)

	// Paper-scale throughput points (warm-up dominates; measured after the
	// Scale-32 probe so the two share no warm state). With -checkpoint-dir
	// the warm state restores from a prior snapshot run's checkpoint,
	// recorded per point as restore_sec/checkpoint_hit.
	for _, scale := range experiments.PaperScales {
		snap.SystemThroughputPaperScale = append(snap.SystemThroughputPaperScale,
			experiments.RunPaperScaleProbeCkpt(scale, mode.CheckpointDir, mode.Checkpoints))
	}

	// Off-thread generation overlap at the same scales: cold builds by
	// design (warm-up time is half the measurement), so no checkpoints.
	// The thread count leaves one CPU for the timing thread and caps at 4
	// (16 streams over 4 producers already amortizes the handoff).
	genThreads := runtime.NumCPU() - 1
	if genThreads < 1 {
		genThreads = 1
	}
	if genThreads > 4 {
		genThreads = 4
	}
	for _, scale := range experiments.PaperScales {
		snap.GenOverlap = append(snap.GenOverlap, experiments.RunGenOverlapProbe(scale, genThreads))
	}

	// Distributed sweep throughput at 1 and 2 workers.
	for _, workers := range []int{1, 2} {
		p, err := dist.RunSweepProbe(context.Background(), workers)
		if err != nil {
			return fmt.Errorf("dist_sweep probe (%d workers): %w", workers, err)
		}
		snap.DistSweep = append(snap.DistSweep, p)
	}

	// Fig 10 suite wall-clock through the concurrent runner.
	figStart := time.Now()
	r := experiments.Fig10(mode)
	snap.Fig10.NsPerOp = float64(time.Since(figStart).Nanoseconds())
	snap.Fig10.SiloGeomeanX = r.SpeedupOf("SILO")

	name := snapshotName(snap.Date)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	// Atomic (temp + rename): a crash mid-write must never leave a
	// truncated snapshot — the CI baseline gate picks the newest committed
	// snapshot with `sort | tail -1` and would be poisoned by a torn one.
	if err := robust.WriteFileAtomic(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s: %.1f ns/event vs heap %.1f; array %.1f ns/access; table quot %.1f / open %.1f / map %.1f ns/op, %d B/slot; stream %.1f serial vs %.1f batched ns/op; throughput %.2fms/op %.1f allocs/op, fig10 %.2fs, silo geomean %.7fx)\n",
		name, snap.Scheduler, snap.SchedulerProbe.CalendarNsPerEvent, snap.SchedulerProbe.HeapNsPerEvent,
		snap.ArrayProbe.NsPerAccess,
		snap.CoherenceTable.QuotNsPerOp, snap.CoherenceTable.OpenNsPerOp, snap.CoherenceTable.MapNsPerOp,
		snap.CoherenceTable.BytesPerSlot,
		snap.StreamProbe.SerialNsPerOp, snap.StreamProbe.BatchedNsPerOp,
		snap.SystemThroughput.NsPerOp/1e6, snap.SystemThroughput.AllocsPerOp, snap.Fig10.NsPerOp/1e9, snap.Fig10.SiloGeomeanX)
	for _, p := range snap.SystemThroughputPaperScale {
		warmNote := fmt.Sprintf("warm %.1fs", p.WarmupSec)
		if p.CheckpointHit {
			warmNote = fmt.Sprintf("restored %.2fs", p.RestoreSec)
		}
		fmt.Fprintf(os.Stderr, "  paperscale scale=%d: %.2fms/op, %.0f instr/iter, %d table entries (%.0f MB inline, %s)\n",
			p.Scale, p.NsPerOp/1e6, p.InstrPerIter, p.LineTableEntries, float64(p.LineTableBytes)/(1<<20), warmNote)
	}
	for _, p := range snap.GenOverlap {
		fmt.Fprintf(os.Stderr, "  gen_overlap scale=%d gen-threads=%d: warm %.1fs -> %.1fs, measure %.2fms/op -> %.2fms/op (%d host CPUs)\n",
			p.Scale, p.GenThreads, p.SerialWarmSec, p.RingWarmSec, p.SerialNsPerOp/1e6, p.RingNsPerOp/1e6, snap.Host.NumCPU)
	}
	for _, p := range snap.DistSweep {
		fmt.Fprintf(os.Stderr, "  dist_sweep workers=%d: %d cells, %.2fms/cell, %.1f cells/sec\n",
			p.Workers, p.Cells, p.NsPerCell/1e6, p.CellsPerSec)
	}

	if baseline != "" {
		return gateAgainstBaseline(&snap, baseline)
	}
	return nil
}

// snapshotName returns BENCH_<date>.json, or BENCH_<date>b.json,
// BENCH_<date>c.json, ... when snapshots for the date already exist —
// same-day snapshots (e.g. before/after within one PR) must both survive
// so the perf trajectory stays complete. Suffixes keep plain
// lexicographic sort chronological (see snapshotSuffix), which the CI
// regression gate relies on to pick the newest committed snapshot with
// `ls | sort | tail -1`.
func snapshotName(date string) string {
	for k := 0; ; k++ {
		name := fmt.Sprintf("BENCH_%s%s.json", date, snapshotSuffix(k))
		_, err := os.Stat(name)
		if os.IsNotExist(err) {
			return name
		}
		if err != nil {
			// A persistent stat failure (EACCES, ENAMETOOLONG, ...) would
			// recur for every suffix; fail instead of spinning forever.
			panic(fmt.Sprintf("paperbench: stat %s: %v", name, err))
		}
	}
}

// snapshotSuffix returns the k-th same-day suffix: "", b, c, ..., z, zb,
// ..., zz, zzb, ... Every overflow level extends the previous maximal
// suffix with another letter, and '.' sorts before any letter, so plain
// lexicographic filename sort stays chronological for any number of
// same-day snapshots — the >26-per-day case must neither collide nor
// mis-sort in the CI gate's newest-snapshot selection
// (TestSnapshotSuffixSortsChronologically).
func snapshotSuffix(k int) string {
	if k == 0 {
		return ""
	}
	return strings.Repeat("z", (k-1)/25) + string(rune('b'+(k-1)%25))
}

// benchRegressionFactor is the CI gate's tolerance: probe metrics may vary
// a lot across runner generations and machine phases, so only a >2x
// slowdown — a real algorithmic regression, not noise — fails the build.
const benchRegressionFactor = 2.0

// gateAgainstBaseline compares the fresh snapshot's probe metrics against
// a committed baseline snapshot and errors on any >2x regression. Metrics
// the (older) baseline lacks are skipped, so the gate tightens as the
// schema grows.
func gateAgainstBaseline(snap *benchSnapshot, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	checks := []struct {
		name      string
		old, new_ float64
	}{
		{"scheduler_probe.calendar_ns_per_event", base.SchedulerProbe.CalendarNsPerEvent, snap.SchedulerProbe.CalendarNsPerEvent},
		{"array_probe.ns_per_access", base.ArrayProbe.NsPerAccess, snap.ArrayProbe.NsPerAccess},
		{"coherence_table.quot_ns_per_op", base.CoherenceTable.QuotNsPerOp, snap.CoherenceTable.QuotNsPerOp},
		{"coherence_table.open_ns_per_op", base.CoherenceTable.OpenNsPerOp, snap.CoherenceTable.OpenNsPerOp},
		{"stream_probe.serial_ns_per_op", base.StreamProbe.SerialNsPerOp, snap.StreamProbe.SerialNsPerOp},
		{"stream_probe.batched_ns_per_op", base.StreamProbe.BatchedNsPerOp, snap.StreamProbe.BatchedNsPerOp},
		{"system_throughput.ns_per_op", base.SystemThroughput.NsPerOp, snap.SystemThroughput.NsPerOp},
	}
	// Paper-scale points gate per scale; a scale the baseline never
	// measured is skipped, like any other metric absent from an older
	// schema.
	for _, p := range snap.SystemThroughputPaperScale {
		for _, bp := range base.SystemThroughputPaperScale {
			if bp.Scale == p.Scale {
				checks = append(checks, struct {
					name      string
					old, new_ float64
				}{fmt.Sprintf("system_throughput_paperscale[scale=%d].ns_per_op", p.Scale), bp.NsPerOp, p.NsPerOp})
			}
		}
	}
	// The ring path's timed-phase cost gates per scale too: an off-thread
	// generation regression (handoff cost, lost overlap) must fail CI even
	// while the synchronous default masks it everywhere else.
	for _, p := range snap.GenOverlap {
		for _, bp := range base.GenOverlap {
			if bp.Scale == p.Scale {
				checks = append(checks, struct {
					name      string
					old, new_ float64
				}{fmt.Sprintf("gen_overlap[scale=%d].ring_ns_per_op", p.Scale), bp.RingNsPerOp, p.RingNsPerOp})
			}
		}
	}
	// The distributed runner gates per worker count: a protocol-overhead
	// regression (chattier leases, slower merge) shows up here even when
	// every single-process probe is clean.
	for _, p := range snap.DistSweep {
		for _, bp := range base.DistSweep {
			if bp.Workers == p.Workers {
				checks = append(checks, struct {
					name      string
					old, new_ float64
				}{fmt.Sprintf("dist_sweep[workers=%d].ns_per_cell", p.Workers), bp.NsPerCell, p.NsPerCell})
			}
		}
	}
	bad := 0
	for _, c := range checks {
		if c.old <= 0 { // metric absent from the older baseline schema
			continue
		}
		ratio := c.new_ / c.old
		if ratio > benchRegressionFactor {
			fmt.Fprintf(os.Stderr, "REGRESSION %s: %.2f -> %.2f ns (%.2fx > %.1fx tolerance vs %s)\n",
				c.name, c.old, c.new_, ratio, benchRegressionFactor, path)
			bad++
		} else {
			fmt.Fprintf(os.Stderr, "gate ok %s: %.2f -> %.2f ns (%.2fx)\n", c.name, c.old, c.new_, ratio)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d probe metric(s) regressed >%.1fx against %s", bad, benchRegressionFactor, path)
	}
	return nil
}
