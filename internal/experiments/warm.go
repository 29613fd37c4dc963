package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Shared build→Prewarm→WarmFunctional harness (previously copy-pasted
// between runOne, ThroughputSystemAt and simulateCell) with transparent
// warm-state checkpointing hung on it (DESIGN.md §11): when a
// checkpoint directory is configured, buildWarm restores a warmed
// system on key hit — skipping the functional warm-up that dominates
// paper-scale host cost — and saves one on miss. A restored system is
// bit-identical to a from-scratch build (core differential tests), so
// callers cannot observe the difference except in wall-clock time.

// CheckpointStats accumulates restore/save outcomes across a run (grid
// cells update it concurrently; all fields are accessed atomically).
type CheckpointStats struct {
	Hits     atomic.Uint64 // warm state restored from a checkpoint
	Misses   atomic.Uint64 // no usable checkpoint; built from scratch
	Saves    atomic.Uint64 // checkpoints written after a cold build
	SaveErrs atomic.Uint64 // best-effort saves that failed
	// Waits counts cells that waited for another cell's warm-up of the
	// same key (the single-flight rule) instead of warming up themselves.
	Waits atomic.Uint64
}

// checkpointKeyConfig normalizes a Config to the fields that determine
// warmed state. Functional warm-up never consults pure-latency scalars
// — they shape the timed phase only — so sweep cells that differ only
// in those (the Fig 2 LLC-latency sweep, RW-shared multipliers, hop
// costs) share one checkpoint. Geometry-bearing sub-configs (vault
// banks, memory channels, DRAM-cache pages) stay in the key: restore
// validates slab lengths against them.
func checkpointKeyConfig(cfg core.Config) core.Config {
	cfg.L2Latency = 0
	cfg.LLCBankLatency = 0
	cfg.LLCExtraLatency = 0
	cfg.RWSharedMult = 1
	cfg.HopLatency = 0
	cfg.LLCFixedOverhead = 0
	return cfg
}

// CheckpointKey derives the content-hash key of the warm state produced
// by (cfg, specs, warmInstr): the format generation, the normalized
// config, every workload spec, and the functional warm-up length. Equal
// keys mean bit-identical warmed systems.
func CheckpointKey(cfg core.Config, specs []workload.Spec, warmInstr int) string {
	parts := make([]string, 0, len(specs)+3)
	parts = append(parts, checkpoint.FormatTag, fmt.Sprintf("%+v", checkpointKeyConfig(cfg)))
	for _, sp := range specs {
		parts = append(parts, fmt.Sprintf("%+v", sp))
	}
	parts = append(parts, fmt.Sprint(warmInstr))
	return robust.Key(parts...)
}

// ScenarioCheckpointKey is CheckpointKey for scenario-driven cells: the
// per-spec parts are replaced by the scenario digest, which already
// content-hashes every client's specs, arrivals, core bindings, groups
// and trace bytes. Equal digests mean identical compiled sources, so
// equal keys again mean bit-identical warmed systems.
func ScenarioCheckpointKey(cfg core.Config, scen *scenario.Scenario, warmInstr int) string {
	return robust.Key(checkpoint.FormatTag, fmt.Sprintf("%+v", checkpointKeyConfig(cfg)),
		"scenario", scen.Digest(), fmt.Sprint(warmInstr))
}

// CheckpointPath is the file a key maps to inside a checkpoint dir.
func CheckpointPath(dir, key string) string {
	return filepath.Join(dir, key+".ckpt")
}

// checkpointMeta is the human-readable header blob -checkpoint-ls
// prints; it carries the key's components so a directory listing is
// self-describing.
type checkpointMeta struct {
	Kind      string   `json:"kind"`
	Cores     int      `json:"cores"`
	Scale     int64    `json:"scale"`
	Seed      uint64   `json:"seed"`
	Workloads []string `json:"workloads"`
	WarmInstr int      `json:"warm_instr"`
	Created   int64    `json:"created_unix"`
}

func buildMeta(cfg core.Config, specs []workload.Spec, warmInstr int) string {
	m := checkpointMeta{
		Kind:      cfg.Kind.String(),
		Cores:     cfg.Cores,
		Scale:     cfg.Scale,
		Seed:      cfg.Seed,
		WarmInstr: warmInstr,
		Created:   time.Now().Unix(),
	}
	for _, sp := range specs {
		m.Workloads = append(m.Workloads, sp.Name)
	}
	b, _ := json.Marshal(m)
	return string(b)
}

func buildScenarioMeta(cfg core.Config, scen *scenario.Scenario, warmInstr int) string {
	m := checkpointMeta{
		Kind:      cfg.Kind.String(),
		Cores:     cfg.Cores,
		Scale:     cfg.Scale,
		Seed:      cfg.Seed,
		Workloads: []string{"scenario:" + scen.Name},
		WarmInstr: warmInstr,
		Created:   time.Now().Unix(),
	}
	b, _ := json.Marshal(m)
	return string(b)
}

// buildWarm builds a system and brings it to the post-warm-up state:
// restore from ckptDir on key hit, otherwise NewSystem + Prewarm +
// WarmFunctional (and a best-effort checkpoint save when ckptDir is
// set). cs and ph are optional (nil-safe). Every checkpoint failure
// mode — missing file, torn file, flipped byte, stale version, foreign
// key, geometry mismatch — falls back to the from-scratch path. ctx
// only bounds the wait for another cell's warm-up of the same key.
func buildWarm(ctx context.Context, cfg core.Config, specs []workload.Spec, warmInstr int, ckptDir string, cs *CheckpointStats, ph *phaseTracker) *core.System {
	return buildWarmKeyed(ctx,
		func() string { return CheckpointKey(cfg, specs, warmInstr) },
		func() string { return buildMeta(cfg, specs, warmInstr) },
		func() *core.System { return core.NewSystem(cfg, specs) },
		func(r *checkpoint.Reader) (*core.System, error) { return core.NewSystemFromCheckpoint(cfg, specs, r) },
		warmInstr, ckptDir, cs, ph)
}

// buildWarmScenario is buildWarm for a scenario-driven cell: the specs
// come compiled as per-core sources. Sources compilation is a pure
// function of (scenario, cores, scale, seed), so the restore path and
// the cold path each compile a fresh source set — a restore that fails
// partway must not leak half-restored source state into the fallback
// cold build.
func buildWarmScenario(ctx context.Context, cfg core.Config, scen *scenario.Scenario, warmInstr int, ckptDir string, cs *CheckpointStats, ph *phaseTracker) *core.System {
	compile := func() []workload.Source {
		srcs, err := scen.Sources(cfg.Cores, cfg.Scale, cfg.Seed)
		if err != nil {
			// Reachable only through a mis-shaped (system, scenario)
			// pairing; the CLI validates before sweeping, so this is the
			// internal-invariant path and panics like other cell failures.
			panic(err.Error())
		}
		return srcs
	}
	return buildWarmKeyed(ctx,
		func() string { return ScenarioCheckpointKey(cfg, scen, warmInstr) },
		func() string { return buildScenarioMeta(cfg, scen, warmInstr) },
		func() *core.System { return core.NewSystemFromSources(cfg, compile()) },
		func(r *checkpoint.Reader) (*core.System, error) {
			return core.NewSystemFromCheckpointSources(cfg, compile(), r)
		},
		warmInstr, ckptDir, cs, ph)
}

// errWarmWaitInterrupted is the panic value buildWarmKeyed raises when
// ctx cancels while the cell waits for another cell's warm-up; the grid
// executor maps it to a cancelled (or, under the watchdog, timed-out)
// attempt, like an interrupted injected stall.
var errWarmWaitInterrupted = errors.New("experiments: wait for a shared warm-up interrupted by cancellation")

// warmFlights is the in-process single-flight registry of warm-ups,
// keyed by checkpoint path (DESIGN.md §11). While one cell warms a key
// and saves its checkpoint, every other cell with that key waits and
// then restores from the saved file. It is process-wide because every
// run in the process — grid cells and figure runners — shares the
// checkpoint files it guards.
var warmFlights = flightRegistry{m: map[string]chan struct{}{}}

type flightRegistry struct {
	mu sync.Mutex
	// m maps a path to its leader's done channel. A leader that leaves a
	// checkpoint behind deletes its entry; one that does not closes the
	// channel but keeps the entry, which turns single-flight off for the
	// path.
	m map[string]chan struct{}
}

// join makes the caller the leader of path's warm-up, or waits for the
// current leader to release (counted in cs.Waits, nil-safe). The leader
// gets a release func: it must call it with whether a checkpoint is now
// on disk, and should defer release(false) so that a panic still wakes
// its waiters. A follower gets nil once the leader is done, as does
// every caller after a leader failed: single-flight is then off for
// path for the rest of the process, so the remaining cells warm up in
// parallel instead of queueing behind one failed save after another.
// The wait honours ctx.
func (r *flightRegistry) join(ctx context.Context, path string, cs *CheckpointStats) (release func(saved bool), err error) {
	r.mu.Lock()
	done, ok := r.m[path]
	if !ok {
		done = make(chan struct{})
		r.m[path] = done
		r.mu.Unlock()
		var once sync.Once
		return func(saved bool) {
			once.Do(func() {
				if saved {
					r.mu.Lock()
					delete(r.m, path)
					r.mu.Unlock()
				}
				close(done)
			})
		}, nil
	}
	r.mu.Unlock()
	select {
	case <-done:
		return nil, nil
	default:
	}
	if cs != nil {
		cs.Waits.Add(1)
	}
	select {
	case <-done:
		return nil, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// buildWarmKeyed is the shared warm-or-restore engine behind buildWarm
// and buildWarmScenario: key and meta derivation, cold construction and
// checkpoint restore are injected; the single-flight, locking, fallback
// and best-effort-save policy live here once.
func buildWarmKeyed(ctx context.Context, deriveKey, deriveMeta func() string, build func() *core.System,
	restore func(*checkpoint.Reader) (*core.System, error),
	warmInstr int, ckptDir string, cs *CheckpointStats, ph *phaseTracker) *core.System {
	var key, path string
	var release func(saved bool)
	if ckptDir != "" {
		key = deriveKey()
		path = CheckpointPath(ckptDir, key)
		ph.set("restore")
		// Single-flight: a key whose checkpoint is not on disk yet is
		// warmed by one cell at a time. A key already on disk skips the
		// registry, so an all-restore pass runs its restores in parallel.
		if _, err := os.Stat(path); err != nil {
			var jerr error
			if release, jerr = warmFlights.join(ctx, path, cs); jerr != nil {
				panic(errWarmWaitInterrupted)
			}
			if release != nil {
				defer release(false)
			}
		}
		// Shared dir lock for the whole restore: a concurrent
		// -checkpoint-gc (another worker's maintenance on the shared dir)
		// must not unlink the file mid-read. Failure to lock degrades to
		// the unlocked behavior — locking is protection, not a
		// precondition.
		unlock, lerr := checkpoint.LockDirShared(ckptDir)
		if lerr != nil {
			unlock = func() {}
		}
		if r, err := checkpoint.Open(path, key); err == nil {
			sys, rerr := restore(r)
			r.Close()
			if rerr == nil {
				unlock()
				if release != nil {
					release(true)
				}
				if cs != nil {
					cs.Hits.Add(1)
				}
				return sys
			}
		}
		unlock()
		if cs != nil {
			cs.Misses.Add(1)
		}
	}

	ph.set("build")
	sys := build()
	ph.set("prewarm")
	sys.Prewarm()
	ph.set("warm")
	sys.WarmFunctional(warmInstr)

	if ckptDir != "" {
		// Best-effort save: a full disk or unwritable dir must not fail
		// the run that just paid for the warm-up. Only the key's leader
		// saves in-process; separate processes sharing the dir may still
		// save the same key concurrently, which is benign — each writes a
		// private temp file and the atomic renames carry identical bytes.
		ph.set("checkpoint")
		// Same shared lock for the save: GC must not prune the directory
		// (or the freshly renamed file, under an aggressive age cutoff)
		// while the atomic write is in flight.
		if unlock, lerr := checkpoint.LockDirShared(ckptDir); lerr == nil {
			defer unlock()
		}
		meta := deriveMeta()
		if err := checkpoint.Save(path, key, meta, sys.Checkpoint); err != nil {
			if cs != nil {
				cs.SaveErrs.Add(1)
			}
			fmt.Fprintf(os.Stderr, "checkpoint: save %s failed: %v\n", filepath.Base(path), err)
		} else {
			if release != nil {
				release(true)
			}
			if cs != nil {
				cs.Saves.Add(1)
			}
		}
	}
	return sys
}
