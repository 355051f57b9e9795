// Package obs is the unified observability layer of the simulated SoC
// (beyond the paper; it exists to make the evaluation's §VI questions
// — where do stall cycles, extra NoC flits, and IOTLB walks go? —
// answerable from any run, not only from the curated figures).
//
// It bundles three instruments behind one Observer handle:
//
//   - a hierarchical metrics Registry with dotted per-component
//     namespaces, exported as Prometheus text and JSON. It owns gauges
//     and cycle-bucketed histograms (noc.link.stall_cycles,
//     dma.xfer.cycles); counters are not registry instruments but the
//     SoC's typed sim.Stats counters (monitor.aborts,
//     sched.complete.count, ...), which the registry sums by name at
//     export;
//   - span-based tracing over internal/trace, unifying the Chrome-trace
//     timeline with spans for NoC sends, DMA bursts, IOTLB walks, fault
//     injection, and Monitor checkpoint/restart epochs;
//   - pluggable profiling hooks (Profiler): components register
//     samplers for queue depths and link occupancy, sampled on a fixed
//     simulated-cycle cadence.
//
// Determinism rules: nothing in this package reads the wall clock,
// global randomness, or map iteration order on a hot path; every
// export is sorted by name. Instrumentation is passive — attaching an
// Observer never changes a single simulated cycle — and off by
// default: an unattached component pays one nil check per event.
//
// Concurrency: gauges and histograms are single-writer, like
// sim.Stats — each simulated SoC is single-threaded, and parallel
// experiment cells own private SoCs. The Registry itself
// (registration, AttachStats, export) is mutex-guarded so one registry
// can aggregate many cells running under the -j N experiment runner.
package obs

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultTraceCap bounds the span recorder so long runs cannot grow
// without bound (matches RunModelTraced's cap).
const DefaultTraceCap = 1 << 20

// DefaultSampleEvery is the profiling-hook cadence in simulated
// cycles. 4096 cycles keeps sample streams small (a few thousand
// samples for the largest workload) while still resolving per-layer
// behavior.
const DefaultSampleEvery = sim.Cycle(4096)

// Config sizes an Observer. The zero value selects the defaults:
// metrics and profiling hooks on, span recording off.
type Config struct {
	// TraceCap caps recorded spans (0 = DefaultTraceCap; negative =
	// unbounded). Only meaningful with Spans.
	TraceCap int
	// SampleEvery is the profiler cadence in cycles (0 = default).
	SampleEvery sim.Cycle
	// Spans opts into span recording (one trace event per NoC send,
	// DMA burst, IOTLB walk, ...). Spans cost wall time proportional
	// to the event count — the same class as -trace — so they sit
	// outside the <2% budget the metrics overhead gate enforces.
	Spans bool
}

// Observer is the per-SoC observability handle threaded through the
// components. A nil *Observer is valid everywhere and means
// "observability off"; all methods are nil-safe.
type Observer struct {
	reg  *Registry
	rec  *trace.Recorder
	prof *Profiler
}

// NewObserver builds an enabled observer over one SoC's counter sink:
// the registry exports stats, and the profiler counts its samples
// there.
func NewObserver(cfg Config, stats *sim.Stats) *Observer {
	reg := NewRegistry()
	reg.AttachStats(stats)
	every := cfg.SampleEvery
	if every <= 0 {
		every = DefaultSampleEvery
	}
	o := &Observer{reg: reg, prof: NewProfiler(reg, stats, every)}
	if cfg.Spans {
		cap := cfg.TraceCap
		if cap == 0 {
			cap = DefaultTraceCap
		}
		if cap < 0 {
			cap = 0 // trace.New treats 0 as unbounded
		}
		o.rec = trace.New(cap)
	}
	return o
}

// Registry returns the metrics registry (nil on a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Trace returns the span recorder. It is nil on a nil observer or
// when tracing is disabled; a nil *trace.Recorder is itself a valid
// no-op sink, so callers may record into it unconditionally.
func (o *Observer) Trace() *trace.Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// Profiler returns the sampling hook manager (nil on a nil observer;
// a nil *Profiler is a valid no-op).
func (o *Observer) Profiler() *Profiler {
	if o == nil {
		return nil
	}
	return o.prof
}
