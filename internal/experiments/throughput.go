package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ThroughputWindow is the measured window per iteration of the root
// package's hot-path throughput benchmarks.
const ThroughputWindow sim.Cycle = 10_000

// throughputWarmInstr is the throughput harness's functional warm-up
// length.
const throughputWarmInstr = 100_000

// ThroughputSystemAt builds the warmed reference system the root
// package's BenchmarkSystem* benchmarks measure: a 16-core SILO machine
// running Web Search at the given capacity scale, analytically
// pre-warmed then functionally warmed through the shared warm harness.
// Scale 32 is the cache-resident regime; Scale 1-4 is the paper-scale
// regime — multi-GB aggregate vault capacity, coherence line tables
// with millions of live entries — that the compact-slot stores target
// (DESIGN.md §8's scale note).
func ThroughputSystemAt(scale int64) *core.System {
	cfg := core.SILOConfig(16)
	cfg.Scale = scale
	return buildWarm(context.Background(), cfg, []workload.Spec{workload.WebSearch()}, throughputWarmInstr, "", nil, nil)
}
