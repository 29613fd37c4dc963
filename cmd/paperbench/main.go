// Command paperbench regenerates every table and figure of the paper's
// evaluation. By default it runs in quick mode; -full uses paper-scale
// measurement windows. -only selects a single experiment (e.g. -only
// fig10). -parallel bounds the experiment runner's worker pool (0 = all
// cores). Host-speed measurement lives in perfbench/, not here.
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
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/robust"
	"repro/internal/sim"
)

// cliConfig is the parsed flag set.
type cliConfig struct {
	full            bool
	only            string
	parallel        int
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
// same up-front treatment -parallel gets. flag.Visit walks
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
	var ckptStats experiments.CheckpointStats
	if c.checkpointDir != "" {
		mode.CheckpointDir = c.checkpointDir
		mode.Checkpoints = &ckptStats
		defer func() {
			fmt.Fprintf(os.Stderr, "[checkpoint: restored %d, cold %d, saved %d (%d save errors), %d waited for another cell's warm-up, in %s]\n",
				ckptStats.Hits.Load(), ckptStats.Misses.Load(), ckptStats.Saves.Load(), ckptStats.SaveErrs.Load(), ckptStats.Waits.Load(), c.checkpointDir)
		}()
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

// validateGridFlags range-checks the per-cell measurement flags both
// -grid and -serve hand to the grid runner. Returns a usage message, or
// "" when both are in range.
func validateGridFlags(c cliConfig, mode experiments.Mode) string {
	if c.gridConfidence != 0 && (c.gridConfidence <= 0 || c.gridConfidence >= 1) {
		return fmt.Sprintf("-grid-confidence %v outside (0,1) — e.g. 0.95, not a percentage", c.gridConfidence)
	}
	if c.gridWindows < 0 || sim.Cycle(c.gridWindows) > mode.MeasureCycles {
		return fmt.Sprintf("-grid-windows %d outside [0, %d] (each window needs at least one of the mode's %d measure cycles)",
			c.gridWindows, mode.MeasureCycles, mode.MeasureCycles)
	}
	return ""
}

// runGrid is batch mode with the fault-tolerance layer: per-cell
// isolation (-on-error), retry/backoff (-retries), watchdog
// (-cell-deadline), crash-safe journal + resume (-journal/-resume),
// SIGINT/SIGTERM graceful shutdown, and atomic output (-grid-out).
func runGrid(c cliConfig, mode experiments.Mode) int {
	if msg := validateGridFlags(c, mode); msg != "" {
		fmt.Fprintf(os.Stderr, "grid: %s\n", msg)
		return 2
	}
	policy, err := robust.ParseFailPolicy(c.onError)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grid: -on-error: %v\n", err)
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
