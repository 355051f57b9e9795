package experiments

import (
	"sync"

	"repro/internal/sim"
)

// Per-experiment metrics collection for snpu-bench's -metrics-dir
// mode: while collection is on, every SoC booted by an experiment
// registers its private counter sink here, and the bench harness
// drains the sinks into one obs.Registry per experiment after the
// cells complete. Registration order depends on the -j worker
// schedule, but the registry sums same-named counters across sinks —
// a commutative reduction — so the exported metrics are byte-identical
// at any worker count (the contract TestMetricsCollectionDeterminism
// pins).
var collect struct {
	mu      sync.Mutex
	enabled bool
	sinks   []*sim.Stats
}

// CollectSoCStats toggles stats-sink collection; enabling also clears
// any sinks left from a previous window. Safe from any goroutine.
func CollectSoCStats(on bool) {
	collect.mu.Lock()
	defer collect.mu.Unlock()
	collect.enabled = on
	collect.sinks = nil
}

// CollectingSoCStats reports whether a collection window is open.
// Pool layers (the SoC pool here, the System pool at the repo root)
// check it to fall back to fresh boots, since collection counts one
// sink per boot.
func CollectingSoCStats() bool {
	collect.mu.Lock()
	defer collect.mu.Unlock()
	return collect.enabled
}

// RecordSoCStats registers one booted SoC's counter sink with the
// collector (no-op while collection is off). Every SoC constructor —
// NewSoC here and snpu.New — calls it, so a collection window sees
// each system an experiment boots.
func RecordSoCStats(s *sim.Stats) {
	if s == nil {
		return
	}
	collect.mu.Lock()
	defer collect.mu.Unlock()
	if collect.enabled {
		collect.sinks = append(collect.sinks, s)
	}
}

// FreezeSoCStats swaps a collected sink for a copy of its current
// values (a no-op for a sink not collected). Release paths call it just
// before they reset a SoC's counters, so the export still reads what
// the SoC counted.
func FreezeSoCStats(s *sim.Stats) {
	collect.mu.Lock()
	defer collect.mu.Unlock()
	for i, c := range collect.sinks {
		if c == s {
			frozen := *s
			collect.sinks[i] = &frozen
			return
		}
	}
}

// DrainSoCStats returns the sinks collected since the last drain (or
// enable) and clears the list, keeping collection on. The caller must
// only read the sinks after the owning cells finish — the experiment
// functions return only once their worker pool has drained, so calling
// this after an experiment completes is always safe.
func DrainSoCStats() []*sim.Stats {
	collect.mu.Lock()
	defer collect.mu.Unlock()
	out := collect.sinks
	collect.sinks = nil
	return out
}
