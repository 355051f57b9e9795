package npu

import (
	"fmt"

	"repro/internal/dma"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/trace"
)

// HangError reports a wedged core caught by the per-core watchdog.
// Detected is the cycle the watchdog fired; the task makes no progress
// after the hang, so recovery (abort, restart, remap) resumes from
// Detected.
type HangError struct {
	Core     int
	Detected sim.Cycle
}

func (e *HangError) Error() string {
	return fmt.Sprintf("npu: core %d hung (watchdog fired at cycle %d)", e.Core, e.Detected)
}

// Exec runs one Program on one Core with the double-buffered pipeline
// a Gemmini-style NPU has: mvin traffic for tile i+1 overlaps the
// matmul of tile i, bounded by the two scratchpad buffers, while
// mvout drains through a write buffer without blocking loads.
//
// Exec is resumable: RunUntil executes ops until a scheduling boundary
// so an (untrusted) driver can time-share a core between tasks at
// op-kernel granularity.
type Exec struct {
	core *Core
	prog *Program
	pos  int

	pendingLoads []dma.Request
	// storeReq is the reusable single-descriptor batch for mvout ops:
	// stores issue one at a time, and building a fresh slice per store
	// was a per-tile heap allocation on the hot path.
	storeReq [1]dma.Request
	taskID   int

	// Trace, when non-nil, records every DMA batch, compute tile, and
	// store as a timeline event.
	Trace *trace.Recorder

	// Totals for reporting.
	ComputeBusy sim.Cycle
	Stalls      sim.Cycle
}

// NewExec binds a program to a core. taskID feeds the translator's
// context-switch detection. When the core carries an observer, the
// executor's spans default onto the observer's timeline (Trace remains
// overridable).
func NewExec(core *Core, prog *Program, taskID int) *Exec {
	return &Exec{core: core, prog: prog, taskID: taskID, Trace: core.obs.Trace()}
}

// Done reports whether the whole program has executed.
func (e *Exec) Done() bool { return e.pos >= len(e.prog.Ops) }

// Pos reports the next op index.
func (e *Exec) Pos() int { return e.pos }

// Program returns the bound program.
func (e *Exec) Program() *Program { return e.prog }

// CurrentLayer reports the layer of the next op (or the last layer
// when done).
func (e *Exec) CurrentLayer() int {
	if e.Done() {
		return e.prog.Layers - 1
	}
	return e.prog.Ops[e.pos].Layer
}

// Boundary decides where RunUntil stops: it is consulted after each
// op-kernel (compute op) with the op just retired.
type Boundary func(op Op) bool

// BoundaryNone never stops (run to completion).
func BoundaryNone(Op) bool { return false }

// BoundaryTile stops after every tile (op-kernel).
func BoundaryTile(op Op) bool { return op.Tile }

// BoundaryLayers stops when n layers have retired since the last
// stop. The counter resets each time the boundary fires, so the same
// closure paces an entire time-shared run.
func BoundaryLayers(n int) Boundary {
	last := -1
	count := 0
	return func(op Op) bool {
		if op.Layer != last {
			if last >= 0 {
				count++
			}
			last = op.Layer
		}
		if count >= n {
			count = 0
			return true
		}
		return false
	}
}

// Suspend clamps the core's pipeline state to `at` so work never
// claims the units earlier than the slice's start (e.g., after a
// flush inserted by the scheduler).
func (e *Exec) Suspend(at sim.Cycle) {
	e.core.pipe.clampTo(at)
}

// RunUntil executes ops starting no earlier than `from` until the
// boundary fires or the program ends. It returns the cycle at which
// the executed slice's work fully retires.
func (e *Exec) RunUntil(from sim.Cycle, boundary Boundary) (sim.Cycle, error) {
	e.Suspend(from)
	e.core.dmaEng.Translator().OnContextSwitch(e.taskID)
	for !e.Done() {
		op := e.prog.Ops[e.pos]
		e.pos++
		switch op.Kind {
		case OpLoad:
			e.pendingLoads = append(e.pendingLoads, dma.Request{
				VA:     op.VA,
				Bytes:  op.Bytes,
				Dir:    dma.ToScratchpad,
				World:  e.core.World(),
				TaskID: e.taskID,
			})
		case OpCompute:
			// Issue the accumulated loads for this tile; they may not
			// start before the buffer from two tiles ago was released.
			pipe := &e.core.pipe
			issueAt := pipe.dmaFree
			if issueAt < pipe.prevComputeEnd[0] {
				issueAt = pipe.prevComputeEnd[0]
			}
			loadsDone, err := e.core.dmaEng.DoPipelined(e.pendingLoads, nil, e.core.domain, issueAt)
			if err != nil {
				return 0, fmt.Errorf("npu: core %d: %w", e.core.id, err)
			}
			e.Trace.Record(trace.Event{
				Name: "mvin-batch", Kind: trace.KindDMA, Core: e.core.id,
				Start: issueAt, End: loadsDone,
			})
			e.pendingLoads = e.pendingLoads[:0]
			pipe.dmaFree = loadsDone
			start := loadsDone
			if start < pipe.computeFree {
				start = pipe.computeFree
			}
			e.Stalls += start - pipe.computeFree
			end := start + op.Cycles
			e.Trace.Record(trace.Event{
				Name: "matmul", Kind: trace.KindCompute, Core: e.core.id,
				Start: start, End: end,
			})
			pipe.computeFree = end
			e.ComputeBusy += op.Cycles
			e.core.stats.AddID(sim.IDComputeMACs, op.MACs)
			e.core.stats.AddID(sim.IDComputeCycles, int64(op.Cycles))
			e.core.obsTile.Observe(int64(op.Cycles))
			pipe.prevComputeEnd[0] = pipe.prevComputeEnd[1]
			pipe.prevComputeEnd[1] = end
			if e.core.inj.Enabled() {
				// Advance the injector's clock for untimed sites, then
				// check whether this tile wedges mid-op. The hang lands on
				// whichever core is executing when it comes due.
				e.core.inj.Observe(end)
				if _, ok := e.core.inj.Take(fault.CoreHang, end); ok {
					e.core.stats.IncID(sim.IDCoreHangs)
					wd := e.core.cfg.HangWatchdog
					if wd <= 0 {
						wd = DefaultHangWatchdog
					}
					return 0, &HangError{Core: e.core.id, Detected: end + wd}
				}
			}
			if boundary(op) {
				return e.retire(), nil
			}
		case OpStore:
			// mvout drains after the producing compute, through the
			// write buffer, without stalling subsequent loads.
			at := e.core.pipe.computeFree
			if at < e.core.pipe.storeFree {
				at = e.core.pipe.storeFree
			}
			e.storeReq[0] = dma.Request{
				VA:     op.VA,
				Bytes:  op.Bytes,
				Dir:    dma.ToMemory,
				World:  e.core.World(),
				TaskID: e.taskID,
			}
			done, err := e.core.dmaEng.DoPipelined(e.storeReq[:], nil, e.core.domain, at)
			if err != nil {
				return 0, fmt.Errorf("npu: core %d: %w", e.core.id, err)
			}
			e.Trace.Record(trace.Event{
				Name: "mvout", Kind: trace.KindDMA, Core: e.core.id,
				Start: at, End: done,
			})
			e.core.pipe.storeFree = done
		case OpSend:
			if e.core.router == nil {
				return 0, fmt.Errorf("npu: core %d has no NoC attachment for %s", e.core.id, op.Kind)
			}
			// Handled by the multi-core executor; standalone Exec treats
			// a send as retiring after compute.
			return 0, fmt.Errorf("npu: %s requires the multicore executor", op.Kind)
		case OpRecv:
			return 0, fmt.Errorf("npu: %s requires the multicore executor", op.Kind)
		default:
			return 0, fmt.Errorf("npu: unknown op kind %d", op.Kind)
		}
	}
	return e.retire(), nil
}

// retire reports when the core's in-flight work lands. With a shared
// core pipeline this includes any still-draining work queued by other
// tasks on the same core — the hardware cannot retire out of order.
func (e *Exec) retire() sim.Cycle {
	pipe := &e.core.pipe
	end := pipe.computeFree
	if pipe.storeFree > end {
		end = pipe.storeFree
	}
	if pipe.dmaFree > end {
		end = pipe.dmaFree
	}
	return end
}

// Run executes the whole program from cycle `from`.
func (e *Exec) Run(from sim.Cycle) (sim.Cycle, error) {
	return e.RunUntil(from, BoundaryNone)
}

// SkipToLayer advances past every op of layers below `layer` without
// executing them: checkpoint-restart re-enters the program at the last
// completed layer boundary, with earlier layers' outputs already in
// (checkpointed) DRAM.
func (e *Exec) SkipToLayer(layer int) {
	for e.pos < len(e.prog.Ops) && e.prog.Ops[e.pos].Layer < layer {
		e.pos++
	}
	e.pendingLoads = e.pendingLoads[:0]
}

// Utilization is the fraction of elapsed cycles the array did useful
// work at peak rate, the Fig. 1 metric.
func Utilization(prog *Program, elapsed sim.Cycle, dim int) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(prog.TotalMACs) / float64(int64(dim)*int64(dim)) / float64(elapsed)
}

// FlushLiveBytes reports what a context-switch flush must save and
// restore for this program. At an op-kernel boundary the input
// buffers are clean (re-fetchable from DRAM), so the dirty state is
// the accumulator's partial-sum tile.
func FlushLiveBytes(prog *Program) uint64 { return prog.AccTileBytes }

// domainOf is a small helper used by multicore wiring.
func domainOf(secure bool) spad.DomainID {
	if secure {
		return spad.SecureDomain
	}
	return spad.NonSecure
}
