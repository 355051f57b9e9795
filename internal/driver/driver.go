// Package driver is the *untrusted* NPU software stack: it allocates
// DMA buffer chunks from NPU-reserved memory (the ION/CMA analogue),
// compiles workloads into op streams, maps them for the access-control
// hardware, and schedules tasks onto cores — time-shared at op-kernel
// granularity or spatially across cores.
//
// Nothing in this package is in the TCB (the untrusted software of
// the paper's §III threat model). Secure tasks flow through the
// NPU Monitor (internal/monitor) instead; the driver merely transports
// them (the trampoline's untrusted end).
package driver

import (
	"fmt"

	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Task is one submitted inference job.
type Task struct {
	ID      int
	Model   workload.Workload
	Program *npu.Program
	Secure  bool
	// Chunk is the task's DMA buffer in NPU-reserved memory.
	Chunk     mem.PhysAddr
	ChunkSize uint64
}

// Driver is the untrusted NPU driver instance.
type Driver struct {
	cfg      npu.Config
	reserved *mem.ContigAlloc
	nextID   int
	stats    *sim.Stats
}

// New builds a driver over the NPU-reserved memory range.
func New(cfg npu.Config, reservedBase mem.PhysAddr, reservedSize uint64, stats *sim.Stats) *Driver {
	return &Driver{
		cfg:      cfg,
		reserved: mem.NewContigAlloc(reservedBase, reservedSize),
		nextID:   1,
		stats:    stats,
	}
}

// Reset returns the driver to its freshly constructed state: the
// reserved-memory allocator is emptied and task IDs restart at 1, so
// a recycled System submits tasks with the same IDs, layouts, and
// chunk addresses a fresh boot would — the determinism half of the
// pooling contract.
func (d *Driver) Reset() {
	d.reserved.Reset()
	d.nextID = 1
}

// Reserved exposes the reserved-memory allocator.
func (d *Driver) Reserved() *mem.ContigAlloc { return d.reserved }

// Submit compiles a workload under the given scratchpad budget (0 =
// whole scratchpad) and allocates its DMA chunk. Each task gets its
// own IOVA range (4 GiB apart) so concurrently mapped tasks never
// alias in the access-control hardware.
func (d *Driver) Submit(w workload.Workload, spadBudget int, secure bool) (*Task, error) {
	layout := LayoutFor(d.nextID)
	prog, _, err := npu.CompileCached(w, d.cfg, spadBudget, layout)
	if err != nil {
		return nil, err
	}
	lo, hi := prog.VASpan()
	size := uint64(mem.PageAlignUp(mem.PhysAddr(hi)) - mem.PageAlignDown(mem.PhysAddr(lo)))
	chunk, err := d.reserved.Alloc(size, mem.PageSize)
	if err != nil {
		return nil, fmt.Errorf("driver: allocating %d-byte chunk: %w", size, err)
	}
	t := &Task{
		ID:        d.nextID,
		Model:     w,
		Program:   prog,
		Secure:    secure,
		Chunk:     chunk,
		ChunkSize: size,
	}
	d.nextID++
	return t, nil
}

// Release frees a task's chunk.
func (d *Driver) Release(t *Task) error {
	return d.reserved.Free(t.Chunk)
}

// LayoutFor is the per-task VA layout Submit would compile task `id`
// under: each id gets its own 4 GiB-apart IOVA range so concurrently
// mapped tasks never alias in the access-control hardware. Exposed so
// callers that compile programs out-of-band (the scheduler's parallel
// prepare phase) produce the same non-aliasing spans.
func LayoutFor(id int) npu.Layout {
	return npu.Layout{WeightBase: npu.DefaultLayout.WeightBase + mem.VirtAddr(uint64(id)<<32)}
}

// SubmitProgram registers an externally compiled program as a task,
// allocating only its DMA chunk. Compilation is pure, so callers may
// run it on a worker pool and then register results here sequentially
// — chunk addresses stay deterministic because the allocator sees one
// fixed registration order. The caller owns VA-span uniqueness (use
// LayoutFor).
func (d *Driver) SubmitProgram(w workload.Workload, prog *npu.Program, secure bool) (*Task, error) {
	lo, hi := prog.VASpan()
	size := uint64(mem.PageAlignUp(mem.PhysAddr(hi)) - mem.PageAlignDown(mem.PhysAddr(lo)))
	chunk, err := d.reserved.Alloc(size, mem.PageSize)
	if err != nil {
		return nil, fmt.Errorf("driver: allocating %d-byte chunk: %w", size, err)
	}
	t := &Task{
		ID:        d.nextID,
		Model:     w,
		Program:   prog,
		Secure:    secure,
		Chunk:     chunk,
		ChunkSize: size,
	}
	d.nextID++
	return t, nil
}

// MapTask installs the IOMMU mappings for a task's VA span onto its
// chunk (the TrustZone-NPU path; with a Guarder, the monitor's context
// setter programs translation registers instead).
func (d *Driver) MapTask(u *iommu.IOMMU, t *Task) error {
	lo, _ := t.Program.VASpan()
	base := mem.VirtAddr(mem.PageAlignDown(mem.PhysAddr(lo)))
	return u.Table().MapRange(base, t.Chunk, t.ChunkSize, mem.PermRW, t.Secure)
}

// RunSolo executes one task alone on a core and reports its runtime.
// A non-nil rec replaces the executor's timeline recorder.
func (d *Driver) RunSolo(core *npu.Core, t *Task, rec *trace.Recorder) (sim.Cycle, error) {
	ex := npu.NewExec(core, t.Program, t.ID)
	if rec != nil {
		ex.Trace = rec
	}
	return ex.Run(0)
}

// TimeShareResult reports a time-shared run.
type TimeShareResult struct {
	// Finish[i] is the cycle task i's program completed.
	Finish []sim.Cycle
	// Switches is the number of context switches taken.
	Switches int
	// FlushCycles is the total cycles spent saving/restoring
	// scratchpad context across switches.
	FlushCycles sim.Cycle
}

// Makespan is the last finish time.
func (r TimeShareResult) Makespan() sim.Cycle {
	var m sim.Cycle
	for _, f := range r.Finish {
		if f > m {
			m = f
		}
	}
	return m
}

// RunTimeShared round-robins the tasks on one core, switching at the
// given granularity and — when flush is true — paying the
// save/restore cost of each switch (Fig. 14). flush=false at the same
// granularity is sNPU's ID-isolated sharing: switches still happen,
// but no scrubbing is needed for security, so they cost nothing.
// gran == FlushNone selects tile-granularity switching with no flush
// regardless of the flag.
func (d *Driver) RunTimeShared(core *npu.Core, tasks []*Task, gran spad.FlushGranularity, flush bool) (TimeShareResult, error) {
	if gran == spad.FlushNone {
		flush = false
	}
	if len(tasks) == 0 {
		return TimeShareResult{}, fmt.Errorf("driver: no tasks")
	}
	execs := make([]*npu.Exec, len(tasks))
	bounds := make([]npu.Boundary, len(tasks))
	for i, t := range tasks {
		execs[i] = npu.NewExec(core, t.Program, t.ID)
		bounds[i] = boundaryFor(gran)
	}
	res := TimeShareResult{Finish: make([]sim.Cycle, len(tasks))}
	var now sim.Cycle
	remaining := len(tasks)
	cur := 0
	for remaining > 0 {
		if execs[cur].Done() {
			cur = (cur + 1) % len(tasks)
			continue
		}
		// Without flushing (sNPU's ID isolation) a switch needs no
		// pipeline drain: the incoming task's ops simply queue behind
		// the core's in-flight work, so the slice starts unclamped.
		// With flushing the core must drain and scrub first, so the
		// slice resumes no earlier than the post-flush cycle.
		from := sim.Cycle(0)
		if flush {
			from = now
		}
		end, err := execs[cur].RunUntil(from, bounds[cur])
		if err != nil {
			return TimeShareResult{}, err
		}
		now = end
		if execs[cur].Done() {
			res.Finish[cur] = now
			remaining--
		}
		// Switch to the next runnable task, paying the flush.
		next := nextRunnable(execs, cur)
		if next != cur && next >= 0 {
			if flush {
				cost := spad.FlushCost(npu.FlushLiveBytes(tasks[cur].Program),
					d.cfg.DRAMBytesPerCycle, d.cfg.DRAMLatency, d.stats)
				now += cost
				res.FlushCycles += cost
			}
			res.Switches++
			d.stats.IncID(sim.IDCtxSwitches)
			cur = next
		}
	}
	return res, nil
}

func boundaryFor(gran spad.FlushGranularity) npu.Boundary {
	switch gran {
	case spad.FlushPerLayer:
		return npu.BoundaryLayers(1)
	case spad.FlushPer5Layers:
		return npu.BoundaryLayers(5)
	default: // tile granularity, also used for FlushNone
		return npu.BoundaryTile
	}
}

func nextRunnable(execs []*npu.Exec, cur int) int {
	for off := 1; off <= len(execs); off++ {
		i := (cur + off) % len(execs)
		if !execs[i].Done() {
			return i
		}
	}
	if !execs[cur].Done() {
		return cur
	}
	return -1
}
