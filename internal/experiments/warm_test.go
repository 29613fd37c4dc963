package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func warmTestConfig() core.Config {
	cfg := core.SILOConfig(4)
	cfg.Scale = 256
	return cfg
}

const warmTestInstr = 20_000

// TestBuildWarmMissThenHit: the first build is a cold miss that saves a
// checkpoint; the second restores it; both systems measure identically.
func TestBuildWarmMissThenHit(t *testing.T) {
	dir := t.TempDir()
	cfg := warmTestConfig()
	specs := []workload.Spec{workload.WebSearch()}
	var cs CheckpointStats

	cold, coldInfo := buildWarm(context.Background(), cfg, specs, warmTestInstr, dir, &cs, nil)
	if coldInfo.Hit {
		t.Fatal("first build reported a checkpoint hit")
	}
	if cs.Misses.Load() != 1 || cs.Saves.Load() != 1 || cs.SaveErrs.Load() != 0 {
		t.Fatalf("cold counters: %+v", counters(&cs))
	}
	key := CheckpointKey(cfg, specs, warmTestInstr)
	if _, err := os.Stat(CheckpointPath(dir, key)); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}

	warm, warmInfo := buildWarm(context.Background(), cfg, specs, warmTestInstr, dir, &cs, nil)
	if !warmInfo.Hit || warmInfo.RestoreSec <= 0 {
		t.Fatalf("second build did not restore: %+v", warmInfo)
	}
	if cs.Hits.Load() != 1 {
		t.Fatalf("hit counters: %+v", counters(&cs))
	}

	want := cold.Run(2_000, 8_000)
	got := warm.Run(2_000, 8_000)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored run diverges:\ncold:     %+v\nrestored: %+v", want, got)
	}
}

func counters(cs *CheckpointStats) [4]uint64 {
	return [4]uint64{cs.Hits.Load(), cs.Misses.Load(), cs.Saves.Load(), cs.SaveErrs.Load()}
}

// TestBuildWarmCorruptionFallback: a truncated file, a flipped byte, and
// a stale format version must each fall back to the from-scratch path
// (and overwrite the bad file) with identical measured output — never an
// error, never silently wrong state.
func TestBuildWarmCorruptionFallback(t *testing.T) {
	cfg := warmTestConfig()
	specs := []workload.Spec{workload.DataServing()}
	refSys, _ := buildWarm(context.Background(), cfg, specs, warmTestInstr, "", nil, nil)
	want := refSys.Run(2_000, 8_000)

	corrupt := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"flipped-byte": func(b []byte) []byte { b[len(b)-64] ^= 0x10; return b },
		"stale-version": func(b []byte) []byte {
			b[len(checkpoint.Magic)] = checkpoint.FormatVersion + 1
			return b
		},
	}
	for name, mangle := range corrupt {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var cs CheckpointStats
			buildWarm(context.Background(), cfg, specs, warmTestInstr, dir, &cs, nil) // seed a valid checkpoint
			path := CheckpointPath(dir, CheckpointKey(cfg, specs, warmTestInstr))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			sys, info := buildWarm(context.Background(), cfg, specs, warmTestInstr, dir, &cs, nil)
			if info.Hit {
				t.Fatal("corrupt checkpoint reported as hit")
			}
			if got := sys.Run(2_000, 8_000); !reflect.DeepEqual(want, got) {
				t.Fatalf("fallback run diverges:\nwant: %+v\ngot:  %+v", want, got)
			}
			if cs.Misses.Load() != 2 || cs.Saves.Load() != 2 {
				t.Fatalf("fallback counters: %+v", counters(&cs))
			}
			// The rebuild re-saved over the corrupt file; the next build hits.
			_, info = buildWarm(context.Background(), cfg, specs, warmTestInstr, dir, &cs, nil)
			if !info.Hit {
				t.Fatal("re-saved checkpoint not restored")
			}
		})
	}
}

// TestCheckpointKeyNormalization: pure-timing config fields must not
// perturb the key (sweep cells share warm state), while anything that
// shapes warmed state must.
func TestCheckpointKeyNormalization(t *testing.T) {
	specs := []workload.Spec{workload.WebSearch()}
	base := warmTestConfig()
	key := CheckpointKey(base, specs, warmTestInstr)

	timingOnly := []func(*core.Config){
		func(c *core.Config) { c.LLCExtraLatency += 9 },
		func(c *core.Config) { c.RWSharedMult = 4 },
		func(c *core.Config) { c.L2Latency = 12 },
		func(c *core.Config) { c.LLCBankLatency += 2 },
		func(c *core.Config) { c.HopLatency += 1 },
		func(c *core.Config) { c.LLCFixedOverhead += 5 },
	}
	for i, mut := range timingOnly {
		c := base
		mut(&c)
		if CheckpointKey(c, specs, warmTestInstr) != key {
			t.Fatalf("timing-only mutation %d changed the key", i)
		}
	}

	stateBearing := []func(*core.Config){
		func(c *core.Config) { c.Scale = 512 },
		func(c *core.Config) { c.Seed ^= 1 },
		func(c *core.Config) { c.LLCSize *= 2 },
	}
	for i, mut := range stateBearing {
		c := base
		mut(&c)
		if CheckpointKey(c, specs, warmTestInstr) == key {
			t.Fatalf("state-bearing mutation %d did not change the key", i)
		}
	}
	if CheckpointKey(base, specs, warmTestInstr+1) == key {
		t.Fatal("warm-up length did not change the key")
	}
	if CheckpointKey(base, []workload.Spec{workload.DataServing()}, warmTestInstr) == key {
		t.Fatal("workload did not change the key")
	}
}

// TestBuildWarmSharesAcrossTimingCells proves the cross-cell win: a cell
// differing only in a swept latency restores the checkpoint a previous
// cell saved.
func TestBuildWarmSharesAcrossTimingCells(t *testing.T) {
	dir := t.TempDir()
	specs := []workload.Spec{workload.WebSearch()}
	var cs CheckpointStats

	cfg := warmTestConfig()
	buildWarm(context.Background(), cfg, specs, warmTestInstr, dir, &cs, nil)

	swept := cfg
	swept.LLCExtraLatency += 14 // a Fig 2-style latency point
	sys, info := buildWarm(context.Background(), swept, specs, warmTestInstr, dir, &cs, nil)
	if !info.Hit {
		t.Fatal("timing-swept cell did not share the checkpoint")
	}
	// The restored system must behave as a cold build of the swept config.
	coldSys, _ := buildWarm(context.Background(), swept, specs, warmTestInstr, "", nil, nil)
	want, got := coldSys.Run(2_000, 8_000), sys.Run(2_000, 8_000)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("shared-checkpoint run diverges:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestGridWithCheckpointDirByteIdentical: a grid run with checkpointing
// enabled (both cold and fully-restored passes) emits records identical
// to the plain path in every field but WallMS.
func TestGridWithCheckpointDirByteIdentical(t *testing.T) {
	g := GridSpec{
		Systems:   []core.Config{core.BaselineConfig(4), core.SILOConfig(4)},
		Workloads: []workload.Spec{workload.WebSearch()},
		Overrides: []Override{
			{Name: "lat+0", Apply: func(*core.Config) {}},
			{Name: "lat+9", Apply: func(c *core.Config) { c.LLCExtraLatency += 9 }},
		},
		Windows: 2,
	}
	m := Quick()
	m.Scale = 256
	m.WarmInstr = warmTestInstr
	m.MeasureCycles = 8_000
	want := RunGrid(g, m)

	var cs CheckpointStats
	m.CheckpointDir = t.TempDir()
	m.Checkpoints = &cs
	coldPass := RunGrid(g, m)
	warmPass := RunGrid(g, m)
	if cs.Saves.Load() != 2 { // 2 systems x 1 workload; latency override shares
		t.Fatalf("expected 2 saved checkpoints, counters %+v", counters(&cs))
	}
	if cs.Hits.Load() != 2+4 { // cold pass shares 2, warm pass restores all 4
		t.Fatalf("expected 6 hits, counters %+v", counters(&cs))
	}
	for i := range want {
		for name, got := range map[string][]GridCellResult{"cold": coldPass, "warm": warmPass} {
			r := got[i]
			r.WallMS = want[i].WallMS
			if !reflect.DeepEqual(want[i], r) {
				t.Fatalf("%s pass record %d diverges:\nwant: %+v\ngot:  %+v", name, i, want[i], r)
			}
		}
	}
}

// TestPaperScaleProbeCheckpoint: the probe records restore_sec and
// checkpoint_hit, and the restored probe measures the same system (line
// table identical; throughput is wall-clock and may differ).
func TestPaperScaleProbeCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale probe is slow")
	}
	dir := t.TempDir()
	var cs CheckpointStats
	cold := RunPaperScaleProbeCkpt(64, dir, &cs) // tiny scale keeps the test fast
	if cold.CheckpointHit || cold.RestoreSec != 0 {
		t.Fatalf("cold probe point: %+v", cold)
	}
	warm := RunPaperScaleProbeCkpt(64, dir, &cs)
	if !warm.CheckpointHit || warm.RestoreSec <= 0 {
		t.Fatalf("warm probe point: %+v", warm)
	}
	// The probe measures wall-clock-bounded iteration counts, so
	// post-measurement line-table population is not comparable across
	// runs; the slot encoding and regime are.
	if warm.BytesPerSlot != cold.BytesPerSlot || warm.LineTableEntries == 0 {
		t.Fatalf("restored probe measured a different system shape: %+v vs %+v", warm, cold)
	}
	if filepath.Ext(CheckpointPath(dir, "k")) != ".ckpt" {
		t.Fatal("checkpoint files must use the .ckpt extension")
	}
}

// TestGridCheckpointCountersAcrossParallelism: whatever the worker
// count, the cold pass warms each distinct key once — misses = saves =
// keys, every other cell restores — and both passes emit the plain
// run's records. The worker counts are set explicitly, so a 1-CPU host
// runs the concurrent single-flight and claim paths too.
func TestGridCheckpointCountersAcrossParallelism(t *testing.T) {
	g := GridSpec{
		Systems:   []core.Config{core.BaselineConfig(16), core.SILOConfig(16)},
		Workloads: []workload.Spec{workload.WebSearch()},
		Scenarios: []*scenario.Scenario{testScenario(t, testScenarioSpec)},
		Overrides: []Override{
			{Name: "lat+0", Apply: func(*core.Config) {}},
			{Name: "lat+5", Apply: func(c *core.Config) { c.LLCExtraLatency += 5 }},
			{Name: "lat+9", Apply: func(c *core.Config) { c.LLCExtraLatency += 9 }},
		},
		Windows: 2,
	}
	const cells, keys = 12, 4 // 2 systems x 2 workload points x 3 latencies
	m := faultMode()
	m.Parallelism = 1
	want := jsonLines(RunGrid(g, m))
	for _, par := range []int{1, 2, 4, 8} {
		var cs CheckpointStats
		cm := m
		cm.Parallelism = par
		cm.CheckpointDir = t.TempDir()
		cm.Checkpoints = &cs
		if got := jsonLines(RunGrid(g, cm)); !bytes.Equal(got, want) {
			t.Fatalf("parallel=%d: cold pass records diverge from the plain run", par)
		}
		if c := counters(&cs); c != [4]uint64{cells - keys, keys, keys, 0} {
			t.Fatalf("parallel=%d: cold pass counters [hits misses saves saveErrs] = %v, want [%d %d %d 0]",
				par, c, cells-keys, keys, keys)
		}
		if got := jsonLines(RunGrid(g, cm)); !bytes.Equal(got, want) {
			t.Fatalf("parallel=%d: warm pass records diverge from the plain run", par)
		}
		if c := counters(&cs); c != [4]uint64{2*cells - keys, keys, keys, 0} {
			t.Fatalf("parallel=%d: counters after the warm pass = %v, want every cell restored", par, c)
		}
	}
}

// flightTestBuild runs buildWarmKeyed for the fixed warm-test key with
// an injected cold build, as a grid cell sharing that key would.
func flightTestBuild(ctx context.Context, dir string, build func() *core.System, cs *CheckpointStats) (*core.System, WarmInfo) {
	cfg, specs := warmTestConfig(), []workload.Spec{workload.WebSearch()}
	return buildWarmKeyed(ctx,
		func() string { return CheckpointKey(cfg, specs, warmTestInstr) },
		func() string { return buildMeta(cfg, specs, warmTestInstr) },
		build,
		func(r *checkpoint.Reader) (*core.System, error) { return core.NewSystemFromCheckpoint(cfg, specs, r) },
		warmTestInstr, dir, cs, nil)
}

func newWarmTestSystem() *core.System {
	return core.NewSystem(warmTestConfig(), []workload.Spec{workload.WebSearch()})
}

// waitFor polls cond and panics after a deadlock timeout (it runs on
// goroutines other than the test's, where t.Fatal is not allowed).
func waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			panic("timed out waiting for " + what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBuildWarmSingleFlightFaults: the single-flight rule's failure
// paths. A leader that panics or fails to save still wakes its waiters,
// which then warm up themselves, in parallel; a waiter honours ctx; and
// no goroutine is left behind.
func TestBuildWarmSingleFlightFaults(t *testing.T) {
	const followers = 3

	// leadThenFollow starts a leader whose cold build blocks until every
	// follower waits on it and then runs lead, then the followers, whose
	// cold builds are real. It returns the leader's panic value.
	leadThenFollow := func(t *testing.T, dir string, cs *CheckpointStats, lead func() *core.System) any {
		var builds atomic.Int64
		leading := make(chan struct{})
		build := func() *core.System {
			if builds.Add(1) > 1 {
				return newWarmTestSystem()
			}
			close(leading)
			waitFor("followers to wait", func() bool { return cs.Waits.Load() == followers })
			return lead()
		}
		var wg sync.WaitGroup
		var leaderPanic any
		wg.Add(1 + followers)
		go func() {
			defer wg.Done()
			defer func() { leaderPanic = recover() }()
			flightTestBuild(context.Background(), dir, build, cs)
		}()
		<-leading
		for range followers {
			go func() {
				defer wg.Done()
				flightTestBuild(context.Background(), dir, build, cs)
			}()
		}
		wg.Wait()
		return leaderPanic
	}

	t.Run("leader-panics", func(t *testing.T) {
		checkGoroutineLeaks(t)
		dir := t.TempDir()
		var cs CheckpointStats
		p := leadThenFollow(t, dir, &cs, func() *core.System { panic("injected leader panic") })
		if p != "injected leader panic" {
			t.Fatalf("leader panic = %v", p)
		}
		// The woken followers warm up themselves and save; a slow one
		// may instead restore what a faster one saved.
		c := counters(&cs)
		if c[0]+c[1] != 1+followers || c[1] < 2 || c[2] != c[1]-1 || c[3] != 0 {
			t.Fatalf("counters [hits misses saves saveErrs] = %v", c)
		}
		if _, info := flightTestBuild(context.Background(), dir, nil, &cs); !info.Hit {
			t.Fatal("a followers' checkpoint was not restored afterwards")
		}
	})

	t.Run("save-fails", func(t *testing.T) {
		checkGoroutineLeaks(t)
		// A directory below a regular file cannot be created, even by root.
		blocker := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(blocker, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(blocker, "ckpt")
		var cs CheckpointStats
		if p := leadThenFollow(t, dir, &cs, newWarmTestSystem); p != nil {
			t.Fatalf("leader panicked: %v", p)
		}
		if c := counters(&cs); c != [4]uint64{0, 1 + followers, 0, 1 + followers} {
			t.Fatalf("counters [hits misses saves saveErrs] = %v", c)
		}
		// After a failed save the key is no longer single-flight: two more
		// cells warm up side by side instead of queueing. Each build
		// waits for the other to start, so queueing would time out.
		var started atomic.Int64
		build := func() *core.System {
			started.Add(1)
			waitFor("a parallel warm-up", func() bool { return started.Load() == 2 })
			return newWarmTestSystem()
		}
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				flightTestBuild(context.Background(), dir, build, &cs)
			}()
		}
		wg.Wait()
		if cs.Waits.Load() != followers {
			t.Fatalf("cells waited on a key whose save failed: waits = %d", cs.Waits.Load())
		}
	})

	t.Run("waiter-cancelled", func(t *testing.T) {
		checkGoroutineLeaks(t)
		dir := t.TempDir()
		var cs CheckpointStats
		leading, release := make(chan struct{}), make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			flightTestBuild(context.Background(), dir, func() *core.System {
				close(leading)
				<-release
				return newWarmTestSystem()
			}, &cs)
		}()
		<-leading
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			waitFor("the follower to wait", func() bool { return cs.Waits.Load() == 1 })
			cancel()
		}()
		func() {
			defer func() {
				if p := recover(); p != errWarmWaitInterrupted {
					t.Errorf("cancelled waiter unwound with %v, want errWarmWaitInterrupted", p)
				}
			}()
			flightTestBuild(ctx, dir, nil, &cs)
		}()
		close(release)
		<-done
		if c := counters(&cs); c != [4]uint64{0, 1, 1, 0} {
			t.Fatalf("counters [hits misses saves saveErrs] = %v", c)
		}
	})
}
