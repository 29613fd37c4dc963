package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
)

// -checkpoint-gc must refuse while another process (here: another
// goroutine's shared lock, same flock semantics) is mid-restore on the
// shared directory, leaving every checkpoint in place — the directed
// test for the concurrent-reader guard. After the reader releases, the
// same GC pass prunes normally.
func TestCheckpointGCRefusesWhileDirInUse(t *testing.T) {
	dir := t.TempDir()
	// A fake stale checkpoint: bad header, so an unguarded GC would
	// prune it unconditionally.
	path := filepath.Join(dir, "deadbeef.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	oldWait := gcLockWait
	gcLockWait = 200 * time.Millisecond
	defer func() { gcLockWait = oldWait }()

	unlock, err := checkpoint.LockDirShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if code := runCheckpointGC(dir, 0); code == 0 {
		t.Fatal("gc succeeded while a restore held the directory lock")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("refused gc still removed the checkpoint: %v", err)
	}

	unlock()
	if code := runCheckpointGC(dir, 0); code != 0 {
		t.Fatalf("gc after release exited %d", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("gc after release left the stale checkpoint behind")
	}
}

func TestParseGridSpec(t *testing.T) {
	g, err := parseGridSpec("systems=Baseline,SILO,vaults-sh;workloads=WebSearch,DataServing,SATSolver;overrides=-|scale=64,llc_mb=64", 4, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Systems) != 3 || len(g.Workloads) != 3 || len(g.Overrides) != 2 {
		t.Fatalf("axes = %d/%d/%d, want 3/3/2", len(g.Systems), len(g.Workloads), len(g.Overrides))
	}
	if g.Cells() != 18 {
		t.Fatalf("Cells() = %d, want 18", g.Cells())
	}
	if g.Windows != 4 || g.Confidence != 0.99 {
		t.Fatalf("windows/confidence = %d/%v", g.Windows, g.Confidence)
	}
	if g.Systems[2].Kind != core.VaultsShared {
		t.Fatalf("vaults-sh resolved to %v", g.Systems[2].Kind)
	}
	if g.Overrides[0].Name != "-" || g.Overrides[1].Name != "scale=64,llc_mb=64" {
		t.Fatalf("override names = %q, %q", g.Overrides[0].Name, g.Overrides[1].Name)
	}
	cfg := core.BaselineConfig(16)
	g.Overrides[1].Apply(&cfg)
	if cfg.Scale != 64 || cfg.LLCSize != 64<<20 {
		t.Fatalf("override application: scale=%d llc=%d", cfg.Scale, cfg.LLCSize)
	}
}

func TestParseGridSpecErrors(t *testing.T) {
	cases := []struct {
		arg, wantErr string
	}{
		{"workloads=WebSearch", "needs at least"},
		{"systems=Baseline", "needs at least"},
		{"systems=NoSuch;workloads=WebSearch", "unknown system"},
		{"systems=Baseline;workloads=NoSuch", "unknown workload"},
		{"systems=Baseline;workloads=WebSearch;overrides=frobnicate=1", "unknown key"},
		{"systems=Baseline;workloads=WebSearch;overrides=scale=-3", "scale wants an integer in [1,"},
		{"systems=Baseline;workloads=WebSearch;overrides=l2=maybe", "l2 wants true or false"},
		{"systems=Baseline;workloads=WebSearch;overrides=protocol=mosi", "protocol wants"},
		{"systems=Baseline;workloads=WebSearch;bogus", "not axis=values"},
		{"colors=red;systems=Baseline;workloads=WebSearch", "unknown grid axis"},
		// Parse-time hardening: duplicate keys and out-of-domain values
		// fail before any cell simulates, naming the key.
		{"systems=Baseline;workloads=WebSearch;overrides=scale=8,scale=16", "key scale given twice"},
		{"systems=Baseline;workloads=WebSearch;overrides=llc_mb=9999999999999", "llc_mb wants an integer in [1,"},
		{"systems=Baseline;workloads=WebSearch;overrides=cores=0", "cores wants an integer in [1,"},
		{"systems=Baseline;workloads=WebSearch;overrides=vault_ways=1000000", "vault_ways wants an integer in [1,"},
		{"systems=Baseline;workloads=WebSearch;systems=SILO", `axis "systems" given twice`},
		{"systems=Baseline;scenarios=/nonexistent/spec.yaml", "no such file"},
	}
	for _, c := range cases {
		if _, err := parseGridSpec(c.arg, 0, 0); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("parseGridSpec(%q) error = %v, want containing %q", c.arg, err, c.wantErr)
		}
	}
}

// Every override key must be accepted and mutate the config it names.
func TestParseOverrideKeys(t *testing.T) {
	ov, err := parseOverride("scale=8,cores=4,seed=7,llc_mb=64,llc_ways=8,llc_extra=5,rwmult=2,vault_mb=512,vault_ways=4,l2=true,protocol=mesi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SILOConfig(16)
	ov.Apply(&cfg)
	if cfg.Scale != 8 || cfg.Cores != 4 || cfg.Seed != 7 ||
		cfg.LLCSize != 64<<20 || cfg.LLCWays != 8 || cfg.LLCExtraLatency != 5 ||
		cfg.RWSharedMult != 2 || cfg.VaultCapacity != 512<<20 || cfg.VaultWays != 4 ||
		cfg.L2Size == 0 {
		t.Fatalf("override did not land: %+v", cfg)
	}
	off, err := parseOverride("l2=false")
	if err != nil {
		t.Fatal(err)
	}
	off.Apply(&cfg)
	if cfg.L2Size != 0 {
		t.Fatalf("l2=false left L2Size=%d", cfg.L2Size)
	}
}

// -grid and -serve hand the same per-cell measurement flags to the grid
// runner, so both must refuse the same out-of-range values up front
// (exit 2) instead of -serve running a default window count or failing
// only after handing out a lease.
func TestGridAndServeRejectSameGridFlags(t *testing.T) {
	mode := experiments.Quick()
	bad := []struct {
		name       string
		windows    int
		confidence float64
	}{
		{"negative windows", -3, 0},
		{"windows past measure budget", int(mode.MeasureCycles) + 1, 0},
		{"confidence as percentage", 0, 95},
		{"negative confidence", 0, -0.5},
		{"confidence one", 0, 1},
	}
	for _, tc := range bad {
		c := cliConfig{
			grid:           "systems=SILO;workloads=WebSearch",
			gridWindows:    tc.windows,
			gridConfidence: tc.confidence,
			onError:        "fail",
			serve:          "127.0.0.1:0",
			leaseTTL:       time.Second,
			leaseCells:     1,
		}
		if code := runGrid(c, mode); code != 2 {
			t.Errorf("%s: -grid exit %d, want 2", tc.name, code)
		}
		if code := runServe(c, mode); code != 2 {
			t.Errorf("%s: -serve exit %d, want 2", tc.name, code)
		}
	}
	for _, ok := range []cliConfig{{}, {gridWindows: 8, gridConfidence: 0.99}, {gridWindows: int(mode.MeasureCycles)}} {
		if msg := validateGridFlags(ok, mode); msg != "" {
			t.Errorf("windows=%d confidence=%v rejected: %s", ok.gridWindows, ok.gridConfidence, msg)
		}
	}
}
