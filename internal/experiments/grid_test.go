package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// gridMode keeps grid tests fast; only determinism and record shape are
// under test, not statistical tightness.
func gridMode() Mode {
	return Mode{Name: "grid-test", WarmInstr: 100_000, WarmCycles: 5_000, MeasureCycles: 20_000, Scale: 32}
}

// testGrid is the fixed 3x3x2 grid the golden test and the CLI smoke
// share: three systems, three workloads, two overrides (the acceptance
// floor for the batch mode).
func testGrid() GridSpec {
	return GridSpec{
		Systems: []core.Config{
			core.BaselineConfig(16),
			core.SILOConfig(16),
			core.VaultsSharedConfig(16),
		},
		Workloads: []workload.Spec{
			workload.WebSearch(),
			workload.DataServing(),
			workload.SATSolver(),
		},
		Overrides: []Override{
			NoOverride(),
			{Name: "scale=64", Apply: func(c *core.Config) { c.Scale = 64 }},
		},
		Windows: 4,
	}
}

// jsonLines marshals grid records as the CLI does, with the sole
// non-deterministic field (wall_ms) masked.
func jsonLines(rs []GridCellResult) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, r := range rs {
		r.WallMS = 0
		if err := enc.Encode(r); err != nil {
			panic(err)
		}
	}
	return b.Bytes()
}

// The golden determinism contract, extending
// TestFig10ParallelMatchesSequential to the grid runner: a fixed grid's
// JSON-lines output is byte-identical across parallelism levels once the
// timing field is masked.
func TestGridGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	g := testGrid()
	seq := gridMode()
	seq.Parallelism = 1
	par := gridMode()
	par.Parallelism = 5

	a := jsonLines(RunGrid(g, seq))
	b := jsonLines(RunGrid(g, par))
	if !bytes.Equal(a, b) {
		al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
		for i := range al {
			if i >= len(bl) || al[i] != bl[i] {
				t.Fatalf("grid JSON-lines diverged at record %d:\nseq: %s\npar: %s", i, al[i], bl[i])
			}
		}
		t.Fatal("grid JSON-lines diverged in length")
	}
	if n := bytes.Count(a, []byte("\n")); n != g.Cells() {
		t.Fatalf("emitted %d records, want %d", n, g.Cells())
	}
}

// Record sanity on a real (small) grid: enumeration order, CI bracketing,
// live counters, override echo.
func TestGridRecordShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	g := GridSpec{
		Systems:   []core.Config{core.BaselineConfig(16), core.SILOConfig(16)},
		Workloads: []workload.Spec{workload.WebSearch()},
		Overrides: []Override{NoOverride(), {Name: "scale=64", Apply: func(c *core.Config) { c.Scale = 64 }}},
		Windows:   4,
	}
	rs := RunGrid(g, gridMode())
	if len(rs) != 4 {
		t.Fatalf("got %d records, want 4", len(rs))
	}
	wantOrder := []string{
		"Baseline/WebSearch/-", "Baseline/WebSearch/scale=64",
		"SILO/WebSearch/-", "SILO/WebSearch/scale=64",
	}
	for i, r := range rs {
		if r.Index != i {
			t.Errorf("record %d has index %d", i, r.Index)
		}
		if got := r.System + "/" + r.Workload + "/" + r.Override; got != wantOrder[i] {
			t.Errorf("record %d is %s, want %s", i, got, wantOrder[i])
		}
		if r.Windows != 4 || r.Confidence != 0.95 {
			t.Errorf("record %d windows/confidence = %d/%v", i, r.Windows, r.Confidence)
		}
		if r.Retired == 0 || r.IPC <= 0 {
			t.Errorf("record %d has no progress: %+v", i, r)
		}
		if !(r.IPCCILow <= r.IPCMean && r.IPCMean <= r.IPCCIHigh) {
			t.Errorf("record %d CI [%v, %v] does not bracket mean %v", i, r.IPCCILow, r.IPCCIHigh, r.IPCMean)
		}
		if !(r.IPCMin <= r.IPCMean && r.IPCMean <= r.IPCMax) {
			t.Errorf("record %d extrema [%v, %v] do not bracket mean %v", i, r.IPCMin, r.IPCMax, r.IPCMean)
		}
		if r.LLCHitRate < 0 || r.LLCHitRate > 1 || r.MissRate < 0 || r.MissRate > 1 {
			t.Errorf("record %d rates out of range: %+v", i, r)
		}
	}
	// The scale override must actually land in the record.
	if rs[0].Scale != 32 || rs[1].Scale != 64 {
		t.Fatalf("scale override not applied: %d/%d", rs[0].Scale, rs[1].Scale)
	}
	// Streamed and buffered paths agree record-for-record.
	var streamed []GridCellResult
	m := gridMode()
	m.Parallelism = 1
	RunGridStream(g, m, func(r GridCellResult) bool {
		streamed = append(streamed, r)
		return true
	})
	if !bytes.Equal(jsonLines(streamed), jsonLines(rs)) {
		t.Fatal("RunGridStream and RunGrid diverged")
	}
}

// A 1-window grid has no variance estimate; its records must still be
// valid JSON (no NaN stddev) with a degenerate CI.
func TestGridSingleWindowEncodes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	g := GridSpec{
		Systems:   []core.Config{core.BaselineConfig(16)},
		Workloads: []workload.Spec{workload.WebSearch()},
		Windows:   1,
	}
	var buf bytes.Buffer
	if err := WriteJSONLines(&buf, g, gridMode()); err != nil {
		t.Fatalf("1-window grid failed to encode: %v", err)
	}
	var r GridCellResult
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.IPCStdDev != 0 || r.IPCCILow != r.IPCMean || r.IPCCIHigh != r.IPCMean {
		t.Fatalf("1-window spread not degenerate: %+v", r)
	}
}

// streamOrdered must emit every index exactly once, in order, on the
// calling goroutine, at any worker count — including pools larger than
// the job count.
func TestStreamOrderedEmitsInOrder(t *testing.T) {
	const n = 101
	for _, workers := range []int{1, 2, 3, 7, n, n + 13} {
		var calls atomic.Int64
		next := 0
		streamOrdered(context.Background(), n, workers, nil, func(i int) int {
			calls.Add(1)
			return i * i
		}, func(i, v int) bool {
			if i != next {
				t.Fatalf("workers=%d: emitted index %d, want %d", workers, i, next)
			}
			if v != i*i {
				t.Fatalf("workers=%d: index %d carried %d", workers, i, v)
			}
			next++
			return true
		})
		if next != n {
			t.Fatalf("workers=%d: emitted %d of %d", workers, next, n)
		}
		if calls.Load() != n {
			t.Fatalf("workers=%d: fn ran %d times", workers, calls.Load())
		}
	}
}

// Backpressure: while the cursor is stuck on a slow job, the other
// workers must not run arbitrarily far ahead — the token semaphore caps
// claimed-but-unemitted indices at 2*workers, so the reorder buffer is
// O(workers) even under pathological skew (the documented contract).
func TestStreamOrderedBoundsReorderWindow(t *testing.T) {
	const (
		n       = 400
		workers = 4
	)
	release := make(chan struct{})
	var maxEarly atomic.Int64
	emitted := false
	streamOrdered(context.Background(), n, workers, nil, func(i int) int {
		if i == 0 {
			<-release // everything else must wait on the semaphore
		} else {
			for {
				cur := maxEarly.Load()
				if int64(i) <= cur || maxEarly.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			if i == 2*workers-1 {
				// The farthest index the pool may legally claim while 0 is
				// stuck; claiming it proves the pool kept working, and only
				// now may the slow job finish.
				close(release)
			}
		}
		return i
	}, func(i, v int) bool {
		if !emitted {
			emitted = true
			if got := maxEarly.Load(); got >= 2*workers+int64(workers) {
				t.Fatalf("pool ran %d ahead of a stuck cursor (cap 2*workers=%d)", got, 2*workers)
			}
		}
		return true
	})
	// The test deadlocks (and times out) if the semaphore is so tight the
	// pool cannot reach index 2*workers-1 while 0 is in flight.
}

// Cancellation: emit returning false must stop the sweep — no further
// emissions, and (sequentially) no further fn calls at all.
func TestStreamOrderedCancel(t *testing.T) {
	const n, stopAt = 50, 5
	var calls atomic.Int64
	emitted := 0
	streamOrdered(context.Background(), n, 1, nil, func(i int) int {
		calls.Add(1)
		return i
	}, func(i, v int) bool {
		emitted++
		return emitted < stopAt
	})
	if emitted != stopAt || calls.Load() != stopAt {
		t.Fatalf("sequential cancel: emitted %d, fn calls %d, want %d/%d", emitted, calls.Load(), stopAt, stopAt)
	}

	calls.Store(0)
	emitted = 0
	streamOrdered(context.Background(), n, 4, nil, func(i int) int {
		calls.Add(1)
		return i
	}, func(i, v int) bool {
		emitted++
		return emitted < stopAt
	})
	if emitted != stopAt {
		t.Fatalf("parallel cancel: emitted %d, want %d", emitted, stopAt)
	}
	// Workers may overrun by the in-flight window but not the whole grid.
	if got := calls.Load(); got >= n {
		t.Fatalf("parallel cancel: fn ran %d times, sweep was not cancelled", got)
	}
}

// A panic inside a grid cell must surface on the caller naming the cell,
// at any parallelism.
func TestGridPanicNamesCell(t *testing.T) {
	g := GridSpec{
		Systems:   []core.Config{core.BaselineConfig(16)},
		Workloads: []workload.Spec{workload.WebSearch()},
		Overrides: []Override{{Name: "cores=0", Apply: func(c *core.Config) { c.Cores = 0 }}},
		Windows:   2,
	}
	for _, workers := range []int{1, 4} {
		m := gridMode()
		m.Parallelism = workers
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "Baseline/WebSearch/cores=0") {
					t.Fatalf("workers=%d: panic does not name the cell: %v", workers, msg)
				}
			}()
			RunGrid(g, m)
		}()
	}
}

// Defaults: empty overrides become the identity, windows and confidence
// get their documented defaults, and empty axes fail loudly.
func TestGridSpecNormalization(t *testing.T) {
	g := GridSpec{
		Systems:   []core.Config{core.BaselineConfig(16)},
		Workloads: []workload.Spec{workload.WebSearch()},
	}
	n := g.normalized()
	if len(n.Overrides) != 1 || n.Overrides[0].Name != "-" {
		t.Fatalf("default overrides = %+v", n.Overrides)
	}
	if n.Windows != DefaultGridWindows || n.Confidence != 0.95 {
		t.Fatalf("defaults = %d/%v", n.Windows, n.Confidence)
	}
	if g.Cells() != 1 {
		t.Fatalf("Cells() = %d, want 1", g.Cells())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty grid")
		}
	}()
	GridSpec{}.normalized()
}

// TestStreamOrderedClaimRule pins the warm-key-aware claim rule with
// two workers: while a cell warms a key that is not on disk, the second
// worker skips that key's other cells; with every key on disk, or with
// nothing else to run, or without keys, it claims in index order.
func TestStreamOrderedClaimRule(t *testing.T) {
	cases := []struct {
		name     string
		keys     []string
		onDisk   bool
		firstTwo []int
	}{
		{"skips a key in warm-up", []string{"a", "a", "b", "b"}, false, []int{0, 2}},
		{"all keys on disk", []string{"a", "a", "b", "b"}, true, []int{0, 1}},
		{"every cell skipped", []string{"a", "a", "a", "a"}, false, []int{0, 1}},
		{"keyless cells", []string{"", "", "b", "b"}, false, []int{0, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			var started []int
			saved := map[string]bool{}
			keys := &claimKeys{key: c.keys, ready: func(k string) bool {
				mu.Lock()
				defer mu.Unlock()
				return c.onDisk || saved[k]
			}}
			next := 0
			streamOrdered(context.Background(), len(c.keys), 2, keys, func(i int) int {
				mu.Lock()
				started = append(started, i)
				mu.Unlock()
				// No cell finishes before two have been claimed, so the
				// second claim sees the first cell still running.
				waitFor("two claimed cells", func() bool {
					mu.Lock()
					defer mu.Unlock()
					return len(started) >= 2
				})
				mu.Lock()
				saved[c.keys[i]] = true
				mu.Unlock()
				return i
			}, func(i, v int) bool {
				if i != next || v != i {
					t.Errorf("emitted (%d, %d), want index %d", i, v, next)
				}
				next++
				return true
			})
			first := append([]int(nil), started[:2]...)
			sort.Ints(first)
			if !reflect.DeepEqual(first, c.firstTwo) || next != len(c.keys) {
				t.Fatalf("first two claims %v (want %v), emitted %d of %d", first, c.firstTwo, next, len(c.keys))
			}
		})
	}
}

// TestStreamOrderedWarmKeyStress drives the claim rule together with
// the single-flight registry it steers around: seeded random grids of
// up to 70 cells over 1-8 keys (laid out adjacently, as grid overrides
// are, or scattered), random warm-up and cell durations, 2-8 workers.
// Every index must be emitted exactly once and in order, every key
// warmed exactly once, within a deadlock timeout and without leaking
// goroutines.
func TestStreamOrderedWarmKeyStress(t *testing.T) {
	checkGoroutineLeaks(t)
	rng := rand.New(rand.NewPCG(12, 2026))
	for _, workers := range []int{2, 3, 4, 8} {
		for trial := range 8 {
			n, nk := 1+rng.IntN(70), 1+rng.IntN(8)
			keys := make([]string, n)
			dur := make([]time.Duration, n)
			for i := range keys {
				k := i * nk / n
				if trial%2 == 1 {
					k = rng.IntN(nk)
				}
				if rng.IntN(10) > 0 { // a tenth of the cells share nothing
					keys[i] = fmt.Sprintf("stress-w%d-t%d-k%d", workers, trial, k)
				}
				dur[i] = time.Duration(rng.IntN(2000)) * time.Microsecond
			}
			var onDisk sync.Map
			var mu sync.Mutex
			warmups := map[string]int{}
			ready := func(k string) bool { _, ok := onDisk.Load(k); return ok }
			fn := func(i int) int {
				if k := keys[i]; k != "" && !ready(k) {
					release, err := warmFlights.join(context.Background(), k, nil)
					if err != nil {
						panic(err)
					}
					if release != nil {
						defer release(false)
						if !ready(k) { // else a leader finished in between: restore
							mu.Lock()
							warmups[k]++
							mu.Unlock()
							time.Sleep(dur[i])
							onDisk.Store(k, true)
						}
						release(true)
					}
				}
				time.Sleep(dur[i] / 4)
				return i
			}
			var calls atomic.Int64
			next := 0
			done := make(chan struct{})
			go func() {
				defer close(done)
				streamOrdered(context.Background(), n, workers, &claimKeys{key: keys, ready: ready},
					func(i int) int { calls.Add(1); return fn(i) },
					func(i, v int) bool {
						if i != next || v != i {
							t.Errorf("workers=%d trial=%d: emitted (%d, %d), want index %d", workers, trial, i, v, next)
						}
						next++
						return true
					})
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("workers=%d trial=%d (n=%d, %d keys): pool deadlocked", workers, trial, n, nk)
			}
			if next != n || calls.Load() != int64(n) {
				t.Fatalf("workers=%d trial=%d: emitted %d, fn ran %d times, want %d", workers, trial, next, calls.Load(), n)
			}
			for _, k := range keys {
				if k != "" && warmups[k] != 1 {
					t.Fatalf("workers=%d trial=%d: key %s warmed %d times", workers, trial, k, warmups[k])
				}
			}
		}
	}
}
