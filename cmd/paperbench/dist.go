package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/robust"
)

// Distributed sweep runner CLI (DESIGN.md §13): -serve runs the
// coordinator over the same -grid flags batch mode takes; -worker
// joins a coordinator and contributes cells. The coordinator's output
// is byte-identical to a single-process `-grid` run modulo wall_ms.

// runServe is coordinator mode: partition the grid into lease batches,
// serve them to workers, reassemble reports in enumeration order, and
// write the sweep output exactly like runGrid would.
func runServe(c cliConfig, mode experiments.Mode) int {
	if c.grid == "" {
		fmt.Fprintln(os.Stderr, "dist: -serve needs -grid <spec> (the coordinator owns the sweep definition)")
		return 2
	}
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
		fmt.Fprintln(os.Stderr, "dist: -resume needs -journal <file> (the journal is what a resumed coordinator reads)")
		return 2
	}
	if c.resumeShards != "" && !c.resume {
		fmt.Fprintln(os.Stderr, "dist: -resume-shards needs -resume (shard journals only matter when resuming)")
		return 2
	}

	cfg := dist.Config{
		Grid:         c.grid,
		Windows:      c.gridWindows,
		Confidence:   c.gridConfidence,
		Mode:         mode,
		OnError:      policy,
		Retries:      c.retries,
		Backoff:      robust.Backoff{Base: c.retryBackoff, Cap: 30 * time.Second},
		CellDeadline: c.cellDeadline,
		Resume:       c.resume,
		LeaseTTL:     c.leaseTTL,
		LeaseCells:   c.leaseCells,
		SoloAfter:    c.soloAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "["+format+"]\n", args...)
		},
	}
	if c.resumeShards != "" {
		cfg.ResumeShards = strings.Split(c.resumeShards, ",")
	}
	if c.journal != "" {
		j, err := robust.OpenJournal(c.journal)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dist: %v\n", err)
			return 1
		}
		defer j.Close()
		if c.resume {
			if d := j.DroppedBytes(); d > 0 {
				fmt.Fprintf(os.Stderr, "[dist: journal %s: dropped %d bytes of torn tail]\n", c.journal, d)
			}
		} else if err := j.Clear(); err != nil {
			fmt.Fprintf(os.Stderr, "dist: %v\n", err)
			return 1
		}
		cfg.Journal = j
	}

	co, err := dist.NewCoordinator(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", c.serve)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "[dist: coordinating %d cells on %s]\n", co.StatsSnapshot().Cells, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out := os.Stdout
	tmpName := ""
	if c.gridOut != "" {
		tmp, err := os.CreateTemp(filepath.Dir(c.gridOut), filepath.Base(c.gridOut)+".tmp-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dist: %v\n", err)
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
	err = co.Run(ctx, ln, func(r experiments.GridCellResult) bool {
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
		fmt.Fprintf(os.Stderr, "dist: %v\n", encErr)
		return 1
	}
	st := co.StatsSnapshot()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			hint := ""
			if c.journal != "" {
				hint = fmt.Sprintf("; journaled progress survives — rerun with -journal %s -resume", c.journal)
			}
			fmt.Fprintf(os.Stderr, "dist: interrupted after %d of %d cells%s\n", emitted, st.Cells, hint)
			return 130
		}
		fmt.Fprintf(os.Stderr, "dist: %v\n", err)
		return 1
	}
	if c.gridOut != "" {
		if err := out.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dist: %v\n", err)
			return 1
		}
		if err := robust.CommitFile(tmpName, c.gridOut); err != nil {
			fmt.Fprintf(os.Stderr, "dist: %v\n", err)
			return 1
		}
		tmpName = ""
	}
	failNote := ""
	if failed > 0 {
		failNote = fmt.Sprintf(", %d failed (structured error records)", failed)
	}
	fmt.Fprintf(os.Stderr, "[dist: %d cells in %v via %d worker(s), %d lease(s), %d reassigned, %d duplicate(s), %d solo%s]\n",
		st.Cells, time.Since(start).Round(time.Millisecond), st.WorkersSeen, st.LeasesGranted, st.CellsReassigned, st.DuplicateReports, st.SoloCells, failNote)
	return 0
}

// runWorker is worker mode: join the coordinator at the URL, lease
// cells, stream records back until the sweep finishes.
func runWorker(c cliConfig, mode experiments.Mode) int {
	if c.grid != "" {
		fmt.Fprintln(os.Stderr, "dist: -worker takes the grid from the coordinator — drop -grid")
		return 2
	}
	w := dist.NewWorker(dist.WorkerConfig{
		URL:           strings.TrimRight(c.worker, "/"),
		ID:            c.workerID,
		Parallelism:   mode.Parallelism,
		CheckpointDir: mode.CheckpointDir,
		JournalPath:   c.journal,
		MaxOffline:    c.maxOffline,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "["+format+"]\n", args...)
		},
	})
	defer w.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := w.Run(ctx)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		hint := ""
		if c.journal != "" {
			hint = fmt.Sprintf(" — completed cells are journaled in %s; restart the worker to continue, or feed the file to the coordinator's -resume-shards", c.journal)
		}
		fmt.Fprintf(os.Stderr, "dist: worker %s interrupted; the coordinator reassigns its lease%s\n", w.ID(), hint)
		return 130
	default:
		fmt.Fprintf(os.Stderr, "dist: %v\n", err)
		return 1
	}
}
