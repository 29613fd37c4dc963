package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/workload"
)

// The standalone replays time the cache arrays and the coherence store
// outside the simulator: the workload's own prewarm footprint and op
// stream are generated first, then replayed into freshly built
// cache.Array and coherence.Directory/SnoopFilter instances shaped like
// the system's. The replay is a functional approximation of the
// hierarchy (no timing, no inclusion victims), so it bounds what these
// layers cost per access; the *_ns_per_instr figures set that cost
// beside the in-system core.timed_self_ns_per_instr.

// ref is one generated memory reference.
type ref struct {
	line  mem.LineAddr
	core  uint8
	write bool
	instr bool
}

// cohOp is one coherence-store operation the cache replay implies.
type cohOp struct {
	line mem.LineAddr
	core uint8
	kind uint8
}

const (
	cohRead uint8 = iota
	cohWrite
	cohEvict
)

type replayResult struct {
	accesses int // op-stream references replayed after the prewarm footprint
	cohOps   int // coherence operations those references imply
	instrs   uint64
	cacheNS  int64
	cohNS    int64
}

func (r replayResult) cacheNSPerAccess() float64 { return float64(r.cacheNS) / float64(r.accesses) }
func (r replayResult) cohNSPerOp() float64       { return float64(r.cohNS) / float64(r.cohOps) }
func (r replayResult) cacheNSPerInstr() float64  { return float64(r.cacheNS) / float64(r.instrs) }
func (r replayResult) cohNSPerInstr() float64    { return float64(r.cohNS) / float64(r.instrs) }

// replay generates the references of s's prewarm footprint, warm-up and
// timedPerCore further instructions per core, and times the two
// standalone replays over the op-stream part; the prewarm footprint is
// replayed first, untimed, to fill the arrays and the store.
func replay(cfg core.Config, s singleSystem, timedPerCore uint64) replayResult {
	refs, split, instrs := genRefs(cfg, s, s.warmInstr+int(timedPerCore))
	res := replayResult{accesses: len(refs) - split, instrs: instrs}
	res.cacheNS = replayCache(cfg, refs, split, nil)

	ops := make([]cohOp, 0, len(refs))
	opSplit := 0
	replayCache(cfg, refs, split, func(i int, op cohOp) {
		if i < split {
			opSplit++
		}
		ops = append(ops, op)
	})
	refs = nil
	res.cohOps = len(ops) - opSplit
	res.cohNS = replayCoherence(cfg, ops, opSplit)
	return res
}

// genRefs produces the prewarm visits (interleaved across cores in the
// chunks core.System.Prewarm uses) followed by the references of
// opsPerCore ops per core (interleaved like core.System.WarmFunctional).
// It also returns where the op references start and how many
// instructions they came from.
func genRefs(cfg core.Config, s singleSystem, opsPerCore int) ([]ref, int, uint64) {
	srcs := s.sources(cfg)
	visits := make([][]ref, cfg.Cores)
	for c, src := range srcs {
		src.Prewarm(func(addr mem.Addr, instr bool) {
			visits[c] = append(visits[c], ref{line: addr.Line(), core: uint8(c), instr: instr})
		})
	}
	var refs []ref
	for pos, more := 0, true; more; pos += 1024 {
		more = false
		for _, v := range visits {
			if pos < len(v) {
				refs = append(refs, v[pos:min(pos+1024, len(v))]...)
				more = more || pos+1024 < len(v)
			}
		}
	}
	split := len(refs)
	var op workload.Op
	for done := 0; done < opsPerCore; done += 2000 {
		n := min(2000, opsPerCore-done)
		for c, src := range srcs {
			for i := 0; i < n; i++ {
				src.Next(&op)
				if line := op.NewIFetchLine(); line != 0 {
					refs = append(refs, ref{line: line, core: uint8(c), instr: true})
				}
				if op.IsMem() {
					refs = append(refs, ref{line: op.Addr().Line(), core: uint8(c), write: op.Write()})
				}
			}
		}
	}
	return refs, split, uint64(opsPerCore) * uint64(cfg.Cores)
}

// replayCache runs refs through per-core L1 arrays backed by the
// system's LLC level: a private vault array per core for SILO kinds,
// banked shared LLC arrays otherwise. With emit non-nil it reports the
// coherence operations the fills and evictions imply: vault fills and
// evictions for the SILO directory, L1 fills and evictions for the
// shared LLC's snoop filter, and every store, each with the index of the
// reference that caused it. It returns the host time spent on
// refs[split:].
func replayCache(cfg core.Config, refs []ref, split int, emit func(int, cohOp)) int64 {
	l1Size := scaledPow2Floor(cfg.L1Size, cfg.Scale, 2048)
	l1i := make([]*cache.Array, cfg.Cores)
	l1d := make([]*cache.Array, cfg.Cores)
	for c := range l1i {
		l1i[c] = cache.NewArray(l1Size, cfg.L1Ways, cache.LRU)
		l1d[c] = cache.NewArray(l1Size, cfg.L1Ways, cache.LRU)
	}
	private := cfg.Kind.Private()
	var llc []*cache.Array
	if private {
		per := scaledPow2Floor(cfg.VaultCapacity, cfg.Scale, 4096)
		for c := 0; c < cfg.Cores; c++ {
			llc = append(llc, cache.NewArray(per, cfg.VaultWays, cache.LRU))
		}
	} else {
		bankBits := uint(0)
		for 1<<bankBits < cfg.Cores {
			bankBits++
		}
		per := scaledPow2Floor(cfg.LLCSize, cfg.Scale, 4096) / int64(cfg.Cores)
		for b := 0; b < cfg.Cores; b++ {
			llc = append(llc, cache.NewBankedArray(per, cfg.LLCWays, cache.LRU, bankBits))
		}
	}
	var t0 time.Time
	for i, r := range refs {
		if i == split {
			t0 = time.Now()
		}
		c := int(r.core)
		l1 := l1d[c]
		if r.instr {
			l1 = l1i[c]
		}
		if r.write && emit != nil {
			emit(i, cohOp{line: r.line, core: r.core, kind: cohWrite})
		}
		if l1.ProbeTouch(r.line) != cache.NoWay {
			continue
		}
		slice := llc[c]
		if !private {
			slice = llc[cache.BankSelect(r.line, cfg.Cores)]
		}
		if slice.ProbeTouch(r.line) == cache.NoWay {
			_, ev, evicted := slice.InsertAt(r.line, cache.Shared)
			if private && emit != nil {
				emit(i, cohOp{line: r.line, core: r.core, kind: cohRead})
				if evicted {
					emit(i, cohOp{line: ev.Line, core: r.core, kind: cohEvict})
				}
			}
		}
		_, ev, evicted := l1.InsertAt(r.line, cache.Shared)
		if !private && emit != nil {
			emit(i, cohOp{line: r.line, core: r.core, kind: cohRead})
			if evicted {
				emit(i, cohOp{line: ev.Line, core: r.core, kind: cohEvict})
			}
		}
	}
	return int64(time.Since(t0))
}

// replayCoherence applies ops to a fresh directory (SILO kinds) or snoop
// filter (shared kinds). The directory's reads and evictions are guarded
// by StateOf because the replay's arrays do not track the invalidations
// a store's write implies. It returns the host time spent on ops[split:].
func replayCoherence(cfg core.Config, ops []cohOp, split int) int64 {
	var t0 time.Time
	if cfg.Kind.Private() {
		d := coherence.NewDirectory(cfg.Cores, cfg.Protocol)
		for i, op := range ops {
			if i == split {
				t0 = time.Now()
			}
			c := int(op.core)
			switch op.kind {
			case cohRead:
				if d.StateOf(op.line, c) == cache.Invalid {
					d.Read(op.line, c)
				}
			case cohWrite:
				d.WriteMask(op.line, c)
			case cohEvict:
				if d.StateOf(op.line, c) != cache.Invalid {
					d.Evict(op.line, c)
				}
			}
		}
		return int64(time.Since(t0))
	}
	f := coherence.NewSnoopFilter(cfg.Cores)
	for i, op := range ops {
		if i == split {
			t0 = time.Now()
		}
		c := int(op.core)
		switch op.kind {
		case cohRead:
			f.Read(op.line, c)
		case cohWrite:
			f.WriteMask(op.line, c)
		case cohEvict:
			f.Evict(op.line, c, false)
		}
	}
	return int64(time.Since(t0))
}

// scaledPow2Floor mirrors the capacity scaling core applies to every
// LLC-level and L1 size: divide by the scale, floor at a minimum, round
// to the nearest power of two.
func scaledPow2Floor(bytes, scale, floor int64) int64 {
	v := max(bytes/scale, floor)
	p := int64(1)
	for p*2 <= v {
		p *= 2
	}
	if v-p > 2*p-v {
		p *= 2
	}
	return p
}
