package main

import (
	"fmt"
	"time"

	snpu "repro"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The decode workload is a closed loop over scheduler episodes, with
// no HTTP: secure autoregressive decode sessions on two cores with
// continuous batching (MaxBatch 4), each tenant decoding its own spec,
// interrupted by periodic high-priority secure preemptors. Inside an
// episode arrivals are open loop in simulated time.

var decodeCores = []int{0, 1}

const (
	decodeMaxBatch  = 4
	decodeTraces    = 32 // distinct traces per run
	preemptModel    = "yololite"
	decodeBlobBytes = 4096
)

type decodeTraceRun struct {
	reqs []decodeReq
	ran  bool
	hash uint64
	// simulated outcome of the first run
	tokens   int
	makespan sim.Cycle
	gaps     []float64 // inter-token gaps, cycles
}

type decodeBench struct {
	sys    *snpu.System
	sealed map[int][]byte // preemptor blob per tenant
	traces []*decodeTraceRun
	next   int
	tl     tally

	// per-window accumulators
	steps, tokens int
	simCycles     float64
	ctr           counterSum
	sch           schedStats
}

func newDecode(seed int64, _ string) (bench, error) {
	cfg := snpu.DefaultConfig()
	sys, err := snpu.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &decodeBench{sys: sys, sealed: map[int][]byte{}}
	for t := 0; t < decodeTenants; t++ {
		key := tenantKey(seed, t)
		if err := sys.ProvisionKey(fmt.Sprintf("t%d-key", t), key); err != nil {
			return nil, err
		}
		model := make([]byte, decodeBlobBytes)
		copy(model, fmt.Sprintf("%s weights of tenant %d", preemptModel, t))
		if d.sealed[t], err = snpu.SealModel(key, model); err != nil {
			return nil, err
		}
		// Warm the compile cache: every pass of the tenant's session.
		for _, p := range decodeSpecFor(t).Passes() {
			if _, _, err := npu.CompileCached(p, cfg.NPU, 0, npu.DefaultLayout); err != nil {
				return nil, err
			}
		}
	}
	w, err := workload.Lookup(preemptModel)
	if err == nil {
		_, _, err = npu.CompileCached(w, cfg.NPU, 0, npu.DefaultLayout)
	}
	if err != nil {
		return nil, err
	}
	for k := 0; k < decodeTraces; k++ {
		d.traces = append(d.traces, &decodeTraceRun{reqs: decodeTrace(subSeed(seed, "decode", k))})
	}
	return d, nil
}

// requests turns a trace into scheduler requests, IDs from 1.
func (d *decodeBench) requests(tr *decodeTraceRun) []sched.Request {
	out := make([]sched.Request, len(tr.reqs))
	for i, r := range tr.reqs {
		req := sched.Request{
			ID: i + 1, Tenant: fmt.Sprintf("t%d", r.Tenant), Secure: true,
			Priority: sched.Priority(r.Priority), Arrival: sim.Cycle(r.Arrival),
		}
		if r.Preempt {
			req.Model = preemptModel
			req.KeyID = fmt.Sprintf("t%d-key", r.Tenant)
			req.Sealed = d.sealed[r.Tenant]
		} else {
			spec := decodeSpecFor(r.Tenant)
			req.Decode = &spec
		}
		out[i] = req
	}
	return out
}

func (d *decodeBench) step(t *tracer) error {
	tr := d.traces[d.next]
	d.next = (d.next + 1) % len(d.traces)
	d.steps++
	t.beginOp()
	defer t.span("decode.episode")()
	before := readCounters(d.sys.Stats())

	reqs := d.requests(tr)
	end := t.span("snpu.NewScheduler")
	sc, err := d.sys.NewScheduler(sched.Config{Cores: decodeCores, MaxBatch: decodeMaxBatch})
	end()
	if err != nil {
		return err
	}
	for _, r := range reqs {
		end := t.span("sched.Submit")
		err := sc.Submit(r)
		end()
		if err != nil {
			d.tl.fail(len(reqs), "submit %d: %v", r.ID, err)
			return nil
		}
	}
	end = t.span("sched.Run")
	rep, err := sc.Run()
	end()
	if err != nil {
		d.tl.fail(len(reqs), "run: %v", err)
		return nil
	}

	failed, first := 0, ""
	seen := map[int]int{}
	for _, r := range rep.Results {
		seen[r.ID]++
	}
	for _, r := range reqs {
		res := rep.ResultByID(r.ID)
		if res == nil || seen[r.ID] != 1 || !oneTerminal(*res) {
			if failed++; first == "" {
				first = fmt.Sprintf("request %d: not exactly one terminal result", r.ID)
			}
		}
	}
	hash := rep.DecisionHash()
	switch {
	case failed > 0:
		d.tl.fail(failed, "%s", first)
		d.tl.ok(len(reqs) - failed)
	case tr.ran && hash != tr.hash:
		d.tl.fail(len(reqs), "repeat of decode trace: decision hash %x, first run %x", hash, tr.hash)
	default:
		d.tl.ok(len(reqs))
		if !tr.ran {
			tr.ran, tr.hash = true, hash
			tr.tokens, tr.makespan = rep.Tokens, rep.Makespan
			tr.gaps = tokenGaps(rep.TokenTimes, len(reqs))
		}
	}
	d.tokens += rep.Tokens
	d.simCycles += float64(rep.Makespan)
	log := make([]string, len(rep.Decisions))
	for i, dec := range rep.Decisions {
		log[i] = dec.String()
	}
	d.sch.add(rep.Preemptions, rep.BatchedRuns, rep.Completed, float64(rep.FlushCycles), log, rep.Results)
	after := readCounters(d.sys.Stats())
	dl := delta(before, after)
	t.record(dl)
	d.ctr.add(dl)
	return nil
}

// oneTerminal reports whether a result is in exactly one terminal
// state.
func oneTerminal(r sched.Result) bool {
	_, ok := wantStatus(r)
	return ok
}

// tokenGaps pools the cycle gaps between consecutive tokens of every
// session, walking request IDs in order.
func tokenGaps(times map[int][]sim.Cycle, n int) []float64 {
	var gaps []float64
	for id := 1; id <= n; id++ {
		ts := times[id]
		for i := 1; i < len(ts); i++ {
			gaps = append(gaps, float64(ts[i]-ts[i-1]))
		}
	}
	return gaps
}

func (d *decodeBench) boundary() bool { return d.next == 0 }

func (d *decodeBench) reset() {
	d.steps, d.tokens, d.simCycles = 0, 0, 0
	d.ctr = counterSum{}
	d.sch = schedStats{}
}

func (d *decodeBench) stepsDone() int { return d.steps }

func (d *decodeBench) opsDone() int { return d.tokens }

func (d *decodeBench) summary(elapsed time.Duration) metricSet {
	res := metricSet{}
	var tokens int
	var makespan sim.Cycle
	var gaps []float64
	for _, tr := range d.traces {
		tokens += tr.tokens
		makespan += tr.makespan
		gaps = append(gaps, tr.gaps...)
	}
	// 1 GHz cycle model: one cycle is one nanosecond.
	res.set("sched.sim_tokens_per_s", float64(tokens)*1e9/float64(makespan), "1/s")
	res.set("sched.sim_itl_p99_kcyc", percentile(gaps, 99)/1e3, "kcyc")
	res.set("sim.mcyc_per_s", d.simCycles/1e6/elapsed.Seconds(), "Mcyc/s")
	return res
}

func (d *decodeBench) layers(elapsed time.Duration, t *tracer) metricSet {
	res := metricSet{}
	steps := float64(d.steps)
	d.ctr.layerCounters(res, steps)
	d.sch.report(res, steps)
	res.set("sched.run_ms", t.total("sched.Run")/steps, "ms/op")
	return res
}

func (d *decodeBench) tally() *tally { return &d.tl }
func (d *decodeBench) close()        {}
