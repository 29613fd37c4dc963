package silo_test

import (
	"testing"

	silo "repro"
	"repro/internal/experiments"
)

// The facade exposes the full workflow: configure, build, warm, run.
func TestFacadeQuickstart(t *testing.T) {
	cfg := silo.SILOConfig(4)
	cfg.Scale = 64
	sys := silo.NewSystem(cfg, silo.WebSearch())
	sys.Prewarm()
	sys.WarmFunctional(50_000)
	m := sys.Run(2_000, 10_000)
	if m.Retired == 0 || m.IPC() <= 0 {
		t.Fatalf("quickstart produced no work: %+v", m)
	}
	if msg := sys.CheckInvariants(); msg != "" {
		t.Fatalf("invariants violated: %s", msg)
	}
}

func TestFacadeMixedSystem(t *testing.T) {
	cfg := silo.BaselineConfig(4)
	cfg.Scale = 64
	ws := []silo.Workload{
		silo.Spec2006("mcf"), silo.Spec2006("gamess"),
		silo.Spec2006("lbm"), silo.Spec2006("povray"),
	}
	sys := silo.NewMixedSystem(cfg, ws)
	sys.Prewarm()
	sys.WarmFunctional(30_000)
	m := sys.Run(2_000, 10_000)
	for c := 0; c < 4; c++ {
		if m.PerCoreRetired[c] == 0 {
			t.Fatalf("core %d idle", c)
		}
	}
}

func TestFacadePresetsDistinct(t *testing.T) {
	kinds := map[silo.Kind]silo.Config{
		silo.Baseline:     silo.BaselineConfig(16),
		silo.BaselineDRAM: silo.BaselineDRAMConfig(16),
		silo.SILO:         silo.SILOConfig(16),
		silo.SILOCO:       silo.SILOCOConfig(16),
		silo.VaultsShared: silo.VaultsSharedConfig(16),
	}
	for kind, cfg := range kinds {
		if cfg.Kind != kind {
			t.Errorf("preset for %v reports kind %v", kind, cfg.Kind)
		}
	}
	if silo.SILOConfig(16).VaultCapacity >= silo.SILOCOConfig(16).VaultCapacity {
		t.Error("SILO-CO should have larger vaults than SILO")
	}
}

func TestFacadeDRAMModel(t *testing.T) {
	lo := silo.LatencyOptimizedVault()
	co := silo.CapacityOptimizedVault()
	if lo.CapacityMB != 256 || co.CapacityMB != 512 {
		t.Fatalf("design points: %v / %v", lo, co)
	}
	if lo.AccessCycles(2) != 11 {
		t.Fatalf("latency-optimized vault = %d cycles, want 11", lo.AccessCycles(2))
	}
	if len(silo.TileSweep()) != 5 || len(silo.VaultEnvelope()) != 7 {
		t.Fatal("technology sweeps incomplete")
	}
}

func TestFacadeWorkloadCatalog(t *testing.T) {
	if len(silo.ScaleOutSuite()) != 5 || len(silo.EnterpriseSuite()) != 3 {
		t.Fatal("suite sizes wrong")
	}
	if len(silo.Spec06Mixes()) != 10 {
		t.Fatal("want the paper's 10 mixes")
	}
	if got := silo.MixSpecs(silo.Spec06Mixes()[0]); len(got) != 4 {
		t.Fatal("mix should resolve to 4 specs")
	}
}

// TestFig10SILOGeomeanGolden pins the paper's Fig. 10 headline — SILO's
// geomean speedup over the shared-LLC baseline on the scale-out suite in
// quick mode — to its recorded value, bit for bit. Any change to
// simulated timing, workload generation or warm-up moves it; a
// host-speed change must not.
func TestFig10SILOGeomeanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the quick-mode Fig. 10 suite takes seconds")
	}
	const golden = 1.3196591383249325
	if got := experiments.Fig10(experiments.Quick()).SpeedupOf("SILO"); got != golden {
		t.Fatalf("Fig. 10 silo_geomean_x = %v, want %v", got, golden)
	}
}
