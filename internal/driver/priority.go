package driver

import (
	"fmt"
	"sort"

	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/spad"
)

// A priority-preemptive scheduler over one core: higher-priority tasks
// preempt at the next op-kernel boundary. Under sNPU's ID isolation
// the switch itself is free, so tight SLAs are achievable at tile
// granularity; under a flushing design every preemption pays the
// save/restore, so the same policy costs throughput.

// PrioTask wraps a task with its priority (higher runs first) and an
// arrival time.
type PrioTask struct {
	Task     *Task
	Priority int
	Arrival  sim.Cycle
}

// PrioResult reports a priority-scheduled run.
type PrioResult struct {
	// Finish[i] is when tasks[i] (input order) completed.
	Finish []sim.Cycle
	// StartDelay[i] is tasks[i]'s arrival-to-first-run latency (the
	// SLA figure per task).
	StartDelay []sim.Cycle
	// Preemptions counts higher-priority takeovers.
	Preemptions int
	// FlushCycles is the total scrub cost paid (0 without flushing).
	FlushCycles sim.Cycle
}

// RunPriority executes the tasks on one core under preemptive
// priority scheduling with tile-granularity switch points. flush
// selects the TrustZone-NPU strawman (scrub on every switch).
func (d *Driver) RunPriority(core *npu.Core, tasks []PrioTask, flush bool) (PrioResult, error) {
	if len(tasks) == 0 {
		return PrioResult{}, fmt.Errorf("driver: no tasks")
	}
	type runner struct {
		idx     int
		pt      PrioTask
		exec    *npu.Exec
		started bool
		start   sim.Cycle
		done    bool
		finish  sim.Cycle
	}
	runners := make([]*runner, len(tasks))
	for i, pt := range tasks {
		if pt.Task == nil {
			return PrioResult{}, fmt.Errorf("driver: nil task at %d", i)
		}
		runners[i] = &runner{idx: i, pt: pt, exec: npu.NewExec(core, pt.Task.Program, pt.Task.ID)}
	}
	// Deterministic priority order; stable for equal priorities.
	byPrio := append([]*runner(nil), runners...)
	sort.SliceStable(byPrio, func(i, j int) bool { return byPrio[i].pt.Priority > byPrio[j].pt.Priority })

	res := PrioResult{
		Finish:     make([]sim.Cycle, len(tasks)),
		StartDelay: make([]sim.Cycle, len(tasks)),
	}
	var now sim.Cycle
	var last *runner
	remaining := len(tasks)
	for remaining > 0 {
		// Highest-priority arrived, unfinished task.
		var cur *runner
		for _, r := range byPrio {
			if !r.done && r.pt.Arrival <= now {
				cur = r
				break
			}
		}
		if cur == nil {
			// Idle until the next arrival.
			var next sim.Cycle = -1
			for _, r := range byPrio {
				if !r.done && (next < 0 || r.pt.Arrival < next) {
					next = r.pt.Arrival
				}
			}
			now = next
			continue
		}
		// Account the switch.
		if last != nil && last != cur {
			res.Preemptions++
			d.stats.IncID(sim.IDCtxSwitches)
			if flush && !last.done {
				cost := spad.FlushCost(npu.FlushLiveBytes(last.pt.Task.Program),
					d.cfg.DRAMBytesPerCycle, d.cfg.DRAMLatency, d.stats)
				now += cost
				res.FlushCycles += cost
			}
		}
		if !cur.started {
			cur.started = true
			cur.start = now
			if cur.start < cur.pt.Arrival {
				cur.start = cur.pt.Arrival
			}
			res.StartDelay[cur.idx] = cur.start - cur.pt.Arrival
		}
		// Even without flushing, a task cannot issue work before it
		// arrived; with flushing it also waits for the scrub (now).
		from := cur.pt.Arrival
		if flush && now > from {
			from = now
		}
		end, err := cur.exec.RunUntil(from, npu.BoundaryTile)
		if err != nil {
			return PrioResult{}, err
		}
		now = end
		if cur.exec.Done() {
			cur.done = true
			cur.finish = end
			res.Finish[cur.idx] = end
			remaining--
		}
		last = cur
	}
	return res, nil
}
