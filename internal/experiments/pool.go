package experiments

import (
	"runtime"
	"sync"

	"repro/internal/npu"
)

// SoC pooling: booting a SoC per experiment cell (regions, boot chain,
// NPU, scratchpads, mesh) was a large share of the suite's allocation
// churn, and the GC pressure it generated is what capped parallel
// speedup below 1x. Instead, released SoCs are scrubbed back to their
// freshly booted state (see SoC.Release) and reused by the next cell
// with the same npu.Config.
//
// The determinism contract: a cell run on a recycled SoC produces
// byte-identical cycles, tables, and stats to the same cell on a fresh
// boot. That holds because Release power-cycles every piece of
// observable state — timing resources, pipelines, L2 contents,
// scratchpad payload/tags/valid/parity, mesh locks/inboxes/dead links,
// backing pages, ECC damage, core domains, installed translators, and
// counters — while keeping only capacity (allocated slices and maps)
// warm. TestPooledDifferential pins the
// contract; TestPoolNoSecretLeak pins the isolation half (no prior
// tenant's bytes survive a recycle).
//
// Pooling is transparently disabled while -metrics-dir collection is
// on: that mode aggregates one registered sink per *booted* SoC, so
// reuse would fold several cells into one sink. Cycle counts are
// pooling-independent either way, so the toggle cannot change results.

// poolMaxPerKey caps each config bucket; a parallel runner needs at
// most one SoC per worker in flight, so beyond ~2x the machine width
// extra instances are just held memory.
func poolMaxPerKey() int { return 2 * runtime.GOMAXPROCS(0) }

var socPool = struct {
	sync.Mutex
	disabled bool
	buckets  map[npu.Config][]*SoC
	hits     uint64
	misses   uint64
}{buckets: make(map[npu.Config][]*SoC)}

// SetPooling toggles SoC reuse (on by default). Turning it off also
// drops every pooled instance, so differentials can force the
// fresh-boot path.
func SetPooling(on bool) {
	socPool.Lock()
	defer socPool.Unlock()
	socPool.disabled = !on
	if !on {
		socPool.buckets = make(map[npu.Config][]*SoC)
	}
}

// PoolingEnabled reports whether Acquire may reuse pooled SoCs.
func PoolingEnabled() bool {
	socPool.Lock()
	defer socPool.Unlock()
	return !socPool.disabled
}

// PoolCounters reports lifetime pool hits (recycled SoCs handed out)
// and misses (fresh boots via AcquireSoC).
func PoolCounters() (hits, misses uint64) {
	socPool.Lock()
	defer socPool.Unlock()
	return socPool.hits, socPool.misses
}

// poolActive reports whether reuse is currently allowed: not switched
// off, and not in a metrics-collection window.
func poolActive() bool {
	collect.mu.Lock()
	collecting := collect.enabled
	collect.mu.Unlock()
	if collecting {
		return false
	}
	socPool.Lock()
	defer socPool.Unlock()
	return !socPool.disabled
}

// AcquireSoC returns a ready SoC for cfg — recycled when one is
// pooled, freshly booted otherwise. Callers must hand it back with
// Release when the cell completes. Only identity-translator systems
// (the NewSoC(cfg, nil) shape every cell uses) are pooled; cells
// needing a custom translator factory must call NewSoC directly.
func AcquireSoC(cfg npu.Config) (*SoC, error) {
	if poolActive() {
		socPool.Lock()
		if b := socPool.buckets[cfg]; len(b) > 0 {
			soc := b[len(b)-1]
			socPool.buckets[cfg] = b[:len(b)-1]
			socPool.hits++
			socPool.Unlock()
			return soc, nil
		}
		socPool.misses++
		socPool.Unlock()
	}
	return NewSoC(cfg, nil)
}

// Release scrubs the SoC back to its freshly booted state and returns
// it to the pool. Scrubbing happens here — at hand-back, not at the
// next acquire — so no tenant's data sits in the pool in the interim.
// Safe to call on a nil SoC (error paths).
func (soc *SoC) Release() {
	if soc == nil {
		return
	}
	FreezeSoCStats(soc.Stats)
	soc.NPU.Reset()
	soc.Phys.Reset()
	soc.Stats.Reset()
	if !poolActive() {
		return
	}
	cfg := soc.NPU.Config()
	socPool.Lock()
	defer socPool.Unlock()
	if len(socPool.buckets[cfg]) >= poolMaxPerKey() {
		return
	}
	socPool.buckets[cfg] = append(socPool.buckets[cfg], soc)
}
