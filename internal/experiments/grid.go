package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Batch-mode sweep grids (ROADMAP "Batch-mode CLI"). A Grid is an
// arbitrary (system x workload x config-override) cross product — the
// evaluation style of the die-stacked design-space literature — executed
// on the same deterministic Cell/RunCells worker pool the figure runners
// use, but streamed: each completed cell is emitted as one JSON-lines
// record (with online t-based confidence intervals from the streamed
// window engine) instead of buffering the whole sweep, so a sweep's
// memory footprint is bounded by the worker pool, not the grid size.

// Override names a configuration mutation applied on top of a base system
// config — one axis point of the grid's third dimension.
type Override struct {
	Name  string
	Apply func(*core.Config)
}

// NoOverride is the identity override for grids that only sweep
// (system x workload).
func NoOverride() Override {
	return Override{Name: "-", Apply: func(*core.Config) {}}
}

// GridSpec describes a sweep grid. Cells are enumerated system-major,
// then workload, then override, and results always stream in that
// enumeration order regardless of Mode.Parallelism.
type GridSpec struct {
	Systems   []core.Config
	Workloads []workload.Spec
	// Scenarios are compiled spec files swept as first-class workload
	// axis points alongside Workloads: each (system, scenario, override)
	// triple is one cell, named "scenario:<name>" in the workload column.
	// A scenario binds every core itself, so the cell ignores the uniform
	// one-spec-per-core layout and compiles per-core sources instead.
	Scenarios []*scenario.Scenario
	// Overrides defaults to {NoOverride()} when empty.
	Overrides []Override
	// Windows is the number of measurement windows per cell (the CI
	// sample count); Mode.MeasureCycles is split evenly across them.
	// <= 0 selects DefaultGridWindows.
	Windows int
	// Confidence is the two-sided CI level; <= 0 selects 0.95.
	Confidence float64
}

// DefaultGridWindows is the per-cell window count when GridSpec.Windows
// is unset: enough samples for a meaningful t-interval while keeping the
// per-window length well above the pipeline drain transient.
const DefaultGridWindows = 8

// GridCellResult is one completed cell — exactly one JSON-lines record of
// the batch output. All fields except WallMS are deterministic functions
// of the cell's configuration, so grid output is byte-identical across
// parallelism levels once WallMS is masked (TestGridGoldenDeterminism).
type GridCellResult struct {
	Index    int    `json:"index"`
	System   string `json:"system"`
	Workload string `json:"workload"`
	Override string `json:"override"`

	Scale   int64  `json:"scale"`
	Windows int    `json:"windows"`
	Cycles  uint64 `json:"cycles"`  // total measured cycles (all windows)
	Retired uint64 `json:"retired"` // total retired instructions

	// IPC is the aggregate over the whole measurement (total retired /
	// total cycles); the remaining fields summarize the per-window IPC
	// distribution, streamed through stats.Welford.
	IPC       float64 `json:"ipc"`
	IPCMean   float64 `json:"ipc_mean"`
	IPCStdDev float64 `json:"ipc_stddev"`
	IPCMin    float64 `json:"ipc_min"`
	IPCMax    float64 `json:"ipc_max"`
	// Confidence and the t-based interval of the per-window IPC mean.
	Confidence float64 `json:"confidence"`
	IPCCILow   float64 `json:"ipc_ci_low"`
	IPCCIHigh  float64 `json:"ipc_ci_high"`

	LLCHitRate float64 `json:"llc_hit_rate"`
	MissRate   float64 `json:"miss_rate"`

	// WallMS is the cell's host wall-clock time — the only
	// non-deterministic field.
	WallMS float64 `json:"wall_ms"`

	// Error is non-nil when the cell permanently failed under the
	// SkipFailed policy (RunGridStreamOpts): the structured failure
	// record — kind, phase, message, stack digest, attempts — replaces
	// the measurement fields, which stay zero. Successful records omit
	// the field entirely, so fault-tolerant output stays byte-identical
	// to the historical format.
	Error *CellError `json:"error,omitempty"`
}

// Validate reports whether the spec describes a runnable grid — the
// error-returning counterpart of the panics normalized applies, for
// CLI-reachable paths (RunGridStreamOpts validates instead of
// panicking; panics remain only for internal invariant violations).
func (g GridSpec) Validate() error {
	if len(g.Systems) == 0 || len(g.Workloads)+len(g.Scenarios) == 0 {
		return errors.New("grid needs at least one system and one workload or scenario (pass systems=... and workloads=.../scenarios=...)")
	}
	if g.Confidence >= 1 {
		return fmt.Errorf("grid confidence %v outside (0,1) — e.g. 0.95, not a percentage", g.Confidence)
	}
	return nil
}

// normalized returns the spec with defaults applied.
func (g GridSpec) normalized() GridSpec {
	if err := g.Validate(); err != nil {
		panic("experiments: " + err.Error())
	}
	if len(g.Overrides) == 0 {
		g.Overrides = []Override{NoOverride()}
	}
	if g.Windows <= 0 {
		g.Windows = DefaultGridWindows
	}
	if g.Confidence <= 0 {
		g.Confidence = 0.95
	}
	return g
}

// ScenarioDigests returns the content digest of every scenario axis
// point, in axis order. The distributed runner cross-checks these at
// worker registration: the grid string ships file *paths*, so two
// processes can compile the same string from divergent file copies —
// equal digests prove they didn't.
func (g GridSpec) ScenarioDigests() []string {
	out := make([]string, len(g.Scenarios))
	for i, s := range g.Scenarios {
		out[i] = s.Digest()
	}
	return out
}

// Cells returns the number of cells the grid enumerates.
func (g GridSpec) Cells() int {
	g = g.normalized()
	return len(g.Systems) * (len(g.Workloads) + len(g.Scenarios)) * len(g.Overrides)
}

// gridCell is one enumerated cell before execution.
type gridCell struct {
	index          int
	system, wl, ov string
	cfg            core.Config
	spec           workload.Spec      // uniform-workload cells
	scen           *scenario.Scenario // scenario cells (spec unused)
	windows        int
	confidence     float64
}

// enumerate builds the cell list: system-major, then workload, then
// override. Mode.Scale is applied before the override so an override can
// re-target the scale (the paper-scale sweeps that motivate the grid).
func (g GridSpec) enumerate(m Mode) []gridCell {
	g = g.normalized()
	cells := make([]gridCell, 0, g.Cells())
	for _, sys := range g.Systems {
		add := func(wl string, spec workload.Spec, scen *scenario.Scenario) {
			for _, ov := range g.Overrides {
				cfg := sys
				cfg.Scale = m.Scale
				ov.Apply(&cfg)
				cells = append(cells, gridCell{
					index:      len(cells),
					system:     sys.Kind.String(),
					wl:         wl,
					ov:         ov.Name,
					cfg:        cfg,
					spec:       spec,
					scen:       scen,
					windows:    g.Windows,
					confidence: g.Confidence,
				})
			}
		}
		for _, spec := range g.Workloads {
			add(spec.Name, spec, nil)
		}
		for _, scen := range g.Scenarios {
			add("scenario:"+scen.Name, workload.Spec{}, scen)
		}
	}
	return cells
}

// checkpointKey is the key of the warm state the cell builds or restores
// (buildWarm / buildWarmScenario derive the same one).
func (c gridCell) checkpointKey(warmInstr int) string {
	if c.scen != nil {
		return ScenarioCheckpointKey(c.cfg, c.scen, warmInstr)
	}
	return CheckpointKey(c.cfg, []workload.Spec{c.spec}, warmInstr)
}

// RunGridStream executes the grid under mode m, invoking emit once per
// completed cell, always in enumeration order and always on the calling
// goroutine. Cells execute concurrently on Mode.Parallelism workers;
// completed-out-of-order results wait in a reorder window bounded by
// twice the worker count (workers block rather than run further ahead),
// so memory stays O(workers), not O(grid). Emission order and every
// record field except WallMS are identical at any parallelism level.
// emit returns whether to continue: false cancels the sweep — remaining
// cells are never simulated. It is RunGridStreamOpts with the zero
// GridOptions (fail fast), except that a failure panics, naming the cell.
func RunGridStream(g GridSpec, m Mode, emit func(GridCellResult) bool) {
	if err := runGridIndexed(context.Background(), g, m, GridOptions{}, nil, emit); err != nil {
		panic(err.Error())
	}
}

// RunGrid executes the grid and returns all records in enumeration order
// — the buffered convenience for small grids and tests.
func RunGrid(g GridSpec, m Mode) []GridCellResult {
	out := make([]GridCellResult, 0, g.Cells())
	RunGridStream(g, m, func(r GridCellResult) bool {
		out = append(out, r)
		return true
	})
	return out
}

// WriteJSONLines streams the grid to w as one JSON object per line — the
// paperbench -grid batch format. The first encode error cancels the
// sweep: on a paper-scale grid a dead writer must not burn hours
// simulating records nobody will see.
func WriteJSONLines(w io.Writer, g GridSpec, m Mode) error {
	enc := json.NewEncoder(w)
	var err error
	RunGridStream(g, m, func(r GridCellResult) bool {
		err = enc.Encode(r)
		return err == nil
	})
	return err
}

// phaseTracker records which phase of a cell a goroutine is in, so a
// watchdog firing on another goroutine can name the phase in its
// timeout record. The nil tracker is valid and tracks nothing.
type phaseTracker struct {
	v atomic.Value // string
}

func (p *phaseTracker) set(phase string) {
	if p != nil {
		p.v.Store(phase)
	}
}

func (p *phaseTracker) get() string {
	if p == nil {
		return ""
	}
	if s, ok := p.v.Load().(string); ok {
		return s
	}
	return "enumerate"
}

// simulateCell builds, warms and measures one grid cell through the
// streamed window engine: Windows consecutive windows of
// MeasureCycles/Windows cycles each, per-window IPC folded into an online
// accumulator — no per-window history is retained. inj (nil-safe)
// injects deterministic faults for the robustness harness; ph (nil-safe)
// exposes the current phase to a watchdog.
func simulateCell(ctx context.Context, c gridCell, m Mode, inj *robust.Injector, attempt int, ph *phaseTracker) GridCellResult {
	start := time.Now()
	window := m.MeasureCycles / sim.Cycle(c.windows)
	if window <= 0 {
		panic(fmt.Sprintf("measure budget %d too small for %d windows", m.MeasureCycles, c.windows))
	}
	// Injected faults land before the build phase: the injection site for
	// the panic/stall matrix (a stall aborts early if ctx cancels, so
	// abandoned attempts unwind instead of sleeping on).
	inj.Fire(ctx, "cell", c.index, attempt)

	var sys *core.System
	if c.scen != nil {
		sys = buildWarmScenario(ctx, c.cfg, c.scen, m.WarmInstr, m.CheckpointDir, m.Checkpoints, ph)
	} else {
		sys = buildWarm(ctx, c.cfg, []workload.Spec{c.spec}, m.WarmInstr, m.CheckpointDir, m.Checkpoints, ph)
	}
	ph.set("measure")
	ws := sys.StreamWindows(m.WarmCycles, window)
	var retired, llcAccesses, hits, misses uint64
	for w := 0; w < c.windows; w++ {
		met := ws.Next()
		retired += met.Retired
		llcAccesses += met.Stats.LLCAccesses
		hits += met.Stats.LocalHits + met.Stats.RemoteHits
		misses += met.Stats.Misses
	}
	ph.set("check")
	if msg := sys.CheckInvariants(); msg != "" {
		panic("invariant violation: " + msg)
	}

	ipc := ws.IPC()
	lo, hi := ipc.CI(c.confidence)
	// A 1-window cell has no variance estimate: report 0 spread (the CI
	// already degenerates to [mean, mean]) rather than NaN, which
	// encoding/json rejects.
	stddev := ipc.StdDev()
	if c.windows < 2 {
		stddev = 0
	}
	totalCycles := uint64(window) * uint64(c.windows)
	r := GridCellResult{
		Index:      c.index,
		System:     c.system,
		Workload:   c.wl,
		Override:   c.ov,
		Scale:      c.cfg.Scale,
		Windows:    c.windows,
		Cycles:     totalCycles,
		Retired:    retired,
		IPC:        float64(retired) / float64(totalCycles),
		IPCMean:    ipc.Mean(),
		IPCStdDev:  stddev,
		IPCMin:     ipc.Min(),
		IPCMax:     ipc.Max(),
		Confidence: c.confidence,
		IPCCILow:   lo,
		IPCCIHigh:  hi,
		WallMS:     float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	if llcAccesses > 0 {
		r.LLCHitRate = float64(hits) / float64(llcAccesses)
		r.MissRate = float64(misses) / float64(llcAccesses)
	}
	return r
}

// claimKeys steers streamOrdered's claim order around warm-ups in
// progress (DESIGN.md §11). key[i] names index i's shared warm state
// ("" for none); ready reports whether that state is already
// materialized, i.e. its checkpoint is on disk, so a cell with the key
// restores instead of waiting for a warm-up. ready runs under the claim
// lock, so it must be quick (a stat) and must not call back into the
// pool.
type claimKeys struct {
	key   []string
	ready func(key string) bool
}

// claimer hands out indices to streamOrdered's workers. Without keys it
// hands them out in index order. With keys it hands out the lowest
// unclaimed index, except that it skips an index whose key a running
// index holds and is not ready yet — that cell would only wait in
// buildWarmKeyed's single-flight while the worker could run another
// cell. When every unclaimed index is skipped it falls back to the
// lowest one, whose cell then waits.
//
// Claims for one key happen in index order — all indices with a key are
// skipped or not alike, and a fallback takes the lowest index — which
// keeps the pool deadlock-free (DESIGN.md §11).
type claimer struct {
	keys *claimKeys

	mu      sync.Mutex
	claimed []bool
	lowest  int            // every index below it is claimed
	running map[string]int // claimed, unfinished indices per key
}

// claim returns the next index to run, or -1 when all are claimed.
func (c *claimer) claim() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.lowest < len(c.claimed) && c.claimed[c.lowest] {
		c.lowest++
	}
	if c.lowest == len(c.claimed) {
		return -1
	}
	i := c.lowest
	if c.keys != nil {
		skipped := ""
		for j := c.lowest; j < len(c.claimed); j++ {
			k := c.keys.key[j]
			if c.claimed[j] || (k != "" && k == skipped) {
				continue
			}
			if k == "" || c.running[k] == 0 || c.keys.ready(k) {
				i = j
				break
			}
			skipped = k
		}
		if k := c.keys.key[i]; k != "" {
			c.running[k]++
		}
	}
	c.claimed[i] = true
	return i
}

// finish records that index i's fn returned (or panicked).
func (c *claimer) finish(i int) {
	if c.keys == nil || c.keys.key[i] == "" {
		return
	}
	c.mu.Lock()
	c.running[c.keys.key[i]]--
	c.mu.Unlock()
}

// streamOrdered runs fn(0..n-1) on a bounded worker pool and delivers
// every result to emit in index order, on the calling goroutine, as soon
// as the next-in-order result is available. It is the streaming
// counterpart of RunCells: same deterministic ordering contract, same
// panic labeling, but O(workers) buffering instead of O(n) — a token
// semaphore stops workers from claiming an index until earlier ones have
// been emitted, so even pathological per-cell skew (one slow cell at the
// cursor, everything after it fast) cannot grow the reorder window past
// 2*workers. emit returning false cancels: no further indices are
// claimed and nothing more is emitted. Cancelling ctx has the same
// effect — workers stop claiming indices, in-flight fn calls are
// drained (their results discarded), and the pool winds down with no
// goroutine leaks; already-emitted results are unaffected. parallelism
// <= 0 uses GOMAXPROCS; 1 degenerates to the in-place sequential path.
//
// keys (nil-safe) lets the pool claim indices out of index order, to
// keep workers busy while a shared warm-up is in progress (claimer).
// The order in which fn runs may then differ from the emission order;
// emission order and the token bound do not change.
func streamOrdered[T any](ctx context.Context, n, parallelism int, keys *claimKeys, fn func(i int) T, emit func(i int, v T) bool) {
	if n == 0 {
		return
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			if !emit(i, fn(i)) {
				return
			}
		}
		return
	}

	type result struct {
		i        int
		v        T
		panicked any
	}
	var (
		stopped atomic.Bool
		wg      sync.WaitGroup
		results = make(chan result, 2*workers)
		// tokens bounds claimed-but-not-yet-emitted indices: a worker
		// acquires one before claiming an index; the consumer releases it
		// when that index is emitted (or discarded after a panic/cancel).
		// The cursor's index is claimed as soon as a token is free (see
		// claimer), and once claimed its holder is either computing or
		// already in pending — the consumer can always make progress and
		// the pool cannot deadlock.
		tokens = make(chan struct{}, 2*workers)
		cl     = &claimer{keys: keys, claimed: make([]bool, n)}
	)
	if keys != nil {
		cl.running = map[string]int{}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				tokens <- struct{}{}
				if stopped.Load() || ctx.Err() != nil {
					<-tokens
					return
				}
				i := cl.claim()
				if i < 0 {
					<-tokens
					return
				}
				r := result{i: i}
				func() {
					defer func() {
						if p := recover(); p != nil {
							r.panicked = p
							stopped.Store(true)
						}
					}()
					r.v = fn(i)
				}()
				cl.finish(i)
				results <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder window: completed-out-of-order results wait here until the
	// cursor reaches them, holding their token; the semaphore caps it at
	// 2*workers entries.
	pending := make(map[int]T, 2*workers)
	var firstPanic any
	cursor := 0
	doomed := false
	for r := range results {
		if r.panicked != nil {
			if firstPanic == nil {
				firstPanic = r.panicked
			}
			<-tokens
			continue
		}
		if !doomed && ctx.Err() != nil {
			// Graceful shutdown: stop claiming and emitting, but keep
			// draining so every worker's in-flight result releases its
			// token and the pool exits cleanly.
			doomed = true
			stopped.Store(true)
			for k := range pending {
				delete(pending, k)
				<-tokens
			}
		}
		if doomed || firstPanic != nil {
			<-tokens // discard; the stream is already over
			continue
		}
		pending[r.i] = r.v
		for {
			v, ok := pending[cursor]
			if !ok {
				break
			}
			delete(pending, cursor)
			<-tokens
			if !emit(cursor, v) {
				doomed = true
				stopped.Store(true)
				// Drop anything already reordered; later arrivals are
				// discarded above as they drain.
				for k := range pending {
					delete(pending, k)
					<-tokens
				}
				break
			}
			cursor++
		}
	}
	if firstPanic != nil {
		panic(firstPanic) // already labeled by fn
	}
}
