package spad

import "repro/internal/sim"

// This file models the two strawman scratchpad protections the paper
// compares against (Table I, Fig. 14, Fig. 15): flushing with context
// save/restore, and static partitioning. Neither adds hardware; both
// cost performance or utilization, which is what the experiments
// measure.

// FlushGranularity selects how often a time-shared NPU flushes the
// scratchpad between tasks (Fig. 14).
type FlushGranularity int

const (
	// FlushNone disables flushing (baseline / sNPU — ID isolation
	// removes the need to flush).
	FlushNone FlushGranularity = iota
	// FlushPerTile flushes at op-kernel (tile) boundaries.
	FlushPerTile
	// FlushPerLayer flushes at layer boundaries.
	FlushPerLayer
	// FlushPer5Layers flushes every five layers.
	FlushPer5Layers
)

func (g FlushGranularity) String() string {
	switch g {
	case FlushNone:
		return "none"
	case FlushPerTile:
		return "tile"
	case FlushPerLayer:
		return "layer"
	case FlushPer5Layers:
		return "5-layers"
	default:
		return "unknown"
	}
}

// FlushCost computes the critical-path cycle cost of one flush event
// ("flushing is not just zeroing out the contents ... but needs to
// save and restore the task's context"). The save of the dirty bytes
// serializes before the next task may touch the scratchpad; the
// restore happens at the evicted task's next resume and overlaps its
// own re-issued tile loads, so only the save sits on the critical
// path. liveBytes is the dirty footprint; bandwidth is DRAM
// bytes/cycle; latency is the per-DMA-batch fixed cost.
func FlushCost(liveBytes uint64, bandwidthBytesPerCycle uint64, dmaLatency sim.Cycle, stats *sim.Stats) sim.Cycle {
	if liveBytes == 0 {
		return 0
	}
	if bandwidthBytesPerCycle == 0 {
		bandwidthBytesPerCycle = 1
	}
	cycles := sim.Cycle(liveBytes/bandwidthBytesPerCycle) + dmaLatency
	// Save now + restore later: 2x total traffic.
	stats.AddID(sim.IDSpadFlushBytes, int64(2*liveBytes))
	return cycles
}
