package snpu

// The scheduler sweeps — serve (offered load), resilience (fault rate ×
// load) and decode (batch width) — are point lists over one episode
// runner. Serving is beyond the paper; the sweeps exercise the §IV-B
// context-switch machinery (a flush on every switch, cut or abort)
// under contention and pin its cycle-determinism: the same seed yields
// a byte-identical table at any -j width, on fresh or pooled Systems.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SweepConfig shapes a sweep. The zero value selects each sweep's
// defaults; a field a sweep does not use is ignored.
type SweepConfig struct {
	// Requests per point (serve 36, resilience 24, decode 10).
	Requests int
	// LoadsPerM are the offered arrival rates in requests per million
	// cycles (serve 0.05, 0.2, 0.8: light, near the 4-core capacity of
	// the mix, overloaded; resilience 0.2, 0.8).
	LoadsPerM []float64
	// Batches are the decode sweep's MaxBatch widths (default 1, 2, 4).
	Batches []int
}

func (c SweepConfig) requests(def int) int {
	if c.Requests > 0 {
		return c.Requests
	}
	return def
}

// orDefault returns xs, or def when xs is empty.
func orDefault[T any](xs, def []T) []T {
	if len(xs) > 0 {
		return xs
	}
	return def
}

// SweepRow is one point: its coordinates (whichever of LoadPerM,
// FaultPerM and MaxBatch the sweep varies) and its episode's summary.
type SweepRow struct {
	LoadPerM, FaultPerM float64
	MaxBatch            int
	// Requests counts the submits the scheduler accepted; Shed counts
	// requests shed by the per-tenant queue bound, at admission or later.
	Requests, Completed, Dropped, Aborted, Rejected, Shed int
	Retries, Recovered, Preemptions                       int
	Makespan, FlushCycles                                 sim.Cycle
	// BatchedRuns counts requests that shared a batch-mate's FnSubmit;
	// Joins counts mid-run continuous-batching admissions.
	BatchedRuns, Joins int
	// ThroughputPerM is completed requests per million cycles of
	// makespan. Every resilience request carries a deadline, so there
	// it is goodput.
	ThroughputPerM float64
	// P50/P99 are percentiles of completed requests' latency.
	P50, P99 sim.Cycle
	// Tokens is the autoregressive tokens retired; TokensPerSec reads
	// them over makespan at the 1 GHz cycle model (1 cycle = 1 ns).
	Tokens       int
	TokensPerSec float64
	// P50ITL/P99ITL are percentiles of the inter-token latency: the
	// gaps between a request's consecutive token retirements.
	P50ITL, P99ITL sim.Cycle
	// Fairness is Jain's index over per-tenant completed counts (1.0 =
	// perfectly even service).
	Fairness float64
}

// SweepResult is a whole sweep.
type SweepResult struct {
	Seed int64
	Rows []SweepRow
	cols []sweepColumn
}

// sweepColumn is one rendered table column.
type sweepColumn struct {
	head, format string
	get          func(SweepRow) any
}

// TableString renders the sweep's columns.
func (r *SweepResult) TableString() string {
	header := make([]string, len(r.cols))
	for i, c := range r.cols {
		header[i] = c.head
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := make([]string, len(r.cols))
		for i, c := range r.cols {
			cells[i] = fmt.Sprintf(c.format, c.get(row))
		}
		rows = append(rows, cells)
	}
	return experiments.Table(header, rows)
}

// Columns shared by more than one sweep.
var (
	colReqs     = sweepColumn{"reqs", "%d", func(r SweepRow) any { return r.Requests }}
	colDone     = sweepColumn{"done", "%d", func(r SweepRow) any { return r.Completed }}
	colDrop     = sweepColumn{"drop", "%d", func(r SweepRow) any { return r.Dropped }}
	colAbort    = sweepColumn{"abort", "%d", func(r SweepRow) any { return r.Aborted }}
	colRej      = sweepColumn{"rej", "%d", func(r SweepRow) any { return r.Rejected }}
	colLoad     = sweepColumn{"load/Mcyc", "%g", func(r SweepRow) any { return r.LoadPerM }}
	colP50      = sweepColumn{"p50-cyc", "%d", func(r SweepRow) any { return r.P50 }}
	colP99      = sweepColumn{"p99-cyc", "%d", func(r SweepRow) any { return r.P99 }}
	colPreempts = sweepColumn{"preempts", "%d", func(r SweepRow) any { return r.Preemptions }}
	colBatched  = sweepColumn{"batched", "%d", func(r SweepRow) any { return r.BatchedRuns }}
	colFlush    = sweepColumn{"flush-cyc", "%d", func(r SweepRow) any { return r.FlushCycles }}
)

// sweepPoint is one scheduler episode, fully described as data so the
// runner never branches on which sweep it serves.
type sweepPoint struct {
	// label names the point in errors.
	label string
	seed  int64
	// row carries the point's coordinates into its summary.
	row   SweepRow
	cfg   sched.Config
	trace []sched.Request
	// faults, when set, is installed before anything runs.
	faults *fault.Plan
	// keyed tenants t0..keyed-1 get ChaosKey(seed+t) as "t<i>-key".
	keyed int
	// plaintext is the model blob sealed for a (key, model) pair, named
	// "<KeyID>/<Model>"; submit cost charges the blob's length.
	plaintext func(sealKey string) string
}

// runSweep runs every point on the worker pool, rows in point order.
func runSweep(seed int64, cols []sweepColumn, points []sweepPoint) (*SweepResult, error) {
	rows, err := experiments.MapIndexed(len(points), func(i int) (SweepRow, error) {
		row, err := points[i].run()
		if err != nil {
			return SweepRow{}, fmt.Errorf("%s: %w", points[i].label, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Seed: seed, Rows: rows, cols: cols}, nil
}

// run is the episode: boot a (pooled) protected SoC, arm the fault
// plan, provision keys, seal once per (key, model) — batch-mates share
// a blob, so sealing cost scales with the blob, not the request —
// submit the trace, run it, and summarize.
func (p *sweepPoint) run() (SweepRow, error) {
	sys, err := acquireSystem(DefaultConfig())
	if err != nil {
		return SweepRow{}, err
	}
	defer sys.release()
	if p.faults != nil {
		sys.InstallFaultPlan(*p.faults)
	}
	keys := make(map[string][]byte, p.keyed)
	for t := 0; t < p.keyed; t++ {
		keyID := fmt.Sprintf("t%d-key", t)
		keys[keyID] = ChaosKey(p.seed + int64(t))
		if err := sys.ProvisionKey(keyID, keys[keyID]); err != nil {
			return SweepRow{}, err
		}
	}
	sc, err := sys.NewScheduler(p.cfg)
	if err != nil {
		return SweepRow{}, err
	}
	sealed := make(map[string][]byte)
	shed := 0
	for _, r := range p.trace {
		if r.Secure && r.KeyID != "" {
			sealKey := r.KeyID + "/" + r.Model
			if sealed[sealKey] == nil {
				blob, err := SealModel(keys[r.KeyID], []byte(p.plaintext(sealKey)))
				if err != nil {
					return SweepRow{}, err
				}
				sealed[sealKey] = blob
			}
			r.Sealed = sealed[sealKey]
		}
		switch err := sc.Submit(r); {
		case err == nil:
		case errors.Is(err, sched.ErrQueueFull):
			shed++
		default:
			return SweepRow{}, err
		}
	}
	rep, err := sc.Run()
	if err != nil {
		return SweepRow{}, err
	}
	return summarize(p.row, rep, shed), nil
}

// summarize fills row from the episode's report; shed counts the
// submits the queue bound refused.
func summarize(row SweepRow, rep *sched.Report, shed int) SweepRow {
	// Submit records every accepted request, so this counts accepted
	// submits.
	row.Requests = len(rep.Results)
	row.Completed = rep.Completed
	row.Dropped = rep.Dropped
	row.Aborted = rep.Aborted
	row.Rejected = rep.Rejected
	row.Shed = rep.Shed + shed
	row.Retries = rep.Retries
	row.Recovered = rep.Recovered
	row.Makespan = rep.Makespan
	row.Tokens = rep.Tokens
	row.Preemptions = rep.Preemptions
	row.BatchedRuns = rep.BatchedRuns
	row.FlushCycles = rep.FlushCycles
	if rep.Makespan > 0 {
		row.ThroughputPerM = float64(rep.Completed) * 1e6 / float64(rep.Makespan)
		row.TokensPerSec = float64(rep.Tokens) * 1e9 / float64(rep.Makespan)
	}
	var lats []sim.Cycle
	perTenant := map[string]float64{}
	for _, r := range rep.Results {
		if r.Completed {
			lats = append(lats, r.Latency())
			perTenant[r.Tenant]++
		}
	}
	row.P50, row.P99 = percentiles(lats)
	row.P50ITL, row.P99ITL = percentiles(tokenGaps(rep.TokenTimes))
	row.Fairness = jain(perTenant)
	for _, d := range rep.Decisions {
		if d.Event == "join" {
			row.Joins++
		}
	}
	return row
}

// percentiles returns the nearest-rank p50 and p99 of xs (0, 0 when
// empty). It sorts xs in place.
func percentiles(xs []sim.Cycle) (p50, p99 sim.Cycle) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2], xs[(len(xs)*99)/100]
}

// tokenGaps pools every request's consecutive token-retire gaps.
func tokenGaps(tokenTimes map[int][]sim.Cycle) []sim.Cycle {
	var gaps []sim.Cycle
	for _, times := range tokenTimes {
		for i := 1; i < len(times); i++ {
			gaps = append(gaps, times[i]-times[i-1])
		}
	}
	return gaps
}

// jain is Jain's fairness index over the map's values.
func jain(xs map[string]float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// The serve and resilience sweeps' fixed shape: four cores, three
// tenants, and a request mix kept to the cheaper models so the sweeps
// stay fast.
var (
	serveCores  = []int{0, 1, 2, 3}
	serveModels = []string{"mobilenet", "yololite", "alexnet"}
)

const serveTenants = 3

// ServeTrace generates the deterministic request trace for one load
// point: exponential inter-arrivals at loadPerM requests per million
// cycles, tenants round-robined through a seeded RNG, models drawn
// from the serve pool, roughly half the requests secure, and every
// fifth request carrying a finish deadline. Exposed so the differential
// tests replay the exact trace the bench ran.
func ServeTrace(seed int64, loadPerM float64, n, tenants int) []sched.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]sched.Request, 0, n)
	var at float64
	for i := 1; i <= n; i++ {
		at += rng.ExpFloat64() * 1e6 / loadPerM
		tenant := rng.Intn(tenants)
		r := sched.Request{
			ID:       i,
			Tenant:   fmt.Sprintf("t%d", tenant),
			Model:    serveModels[rng.Intn(len(serveModels))],
			Priority: sched.Priority(rng.Intn(3)),
			Arrival:  sim.Cycle(at),
			Secure:   rng.Intn(2) == 0,
			KeyID:    fmt.Sprintf("t%d-key", tenant),
		}
		if i%5 == 0 {
			r.Deadline = r.Arrival + sim.Cycle(4e6/loadPerM)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// ServeBench runs the load sweep: throughput, tail latency,
// preemption/batching activity and cross-tenant fairness per offered
// load.
func ServeBench(seed int64, cfg SweepConfig) (*SweepResult, error) {
	n := cfg.requests(36)
	var points []sweepPoint
	for i, load := range orDefault(cfg.LoadsPerM, []float64{0.05, 0.2, 0.8}) {
		s := seed + int64(i)*104729
		points = append(points, sweepPoint{
			label:     fmt.Sprintf("serve load %g", load),
			seed:      s,
			row:       SweepRow{LoadPerM: load},
			cfg:       sched.Config{Cores: serveCores},
			trace:     ServeTrace(s, load, n, serveTenants),
			keyed:     serveTenants,
			plaintext: func(sealKey string) string { return "serve model " + sealKey },
		})
	}
	return runSweep(seed, []sweepColumn{
		colLoad, colReqs, colDone, colDrop, colAbort, colRej,
		{"thru/Mcyc", "%.3f", func(r SweepRow) any { return r.ThroughputPerM }},
		colP50, colP99, colPreempts, colBatched, colFlush,
		{"fairness", "%.3f", func(r SweepRow) any { return r.Fairness }},
	}, points)
}

// ResilienceBench runs the fault-rate × offered-load grid with the full
// resilience policy armed: every request deadlined, transient faults
// injected from a seeded plan, fault-aborted secure tasks retried with
// exponential backoff from their checkpoints, and per-tenant queue
// bounds shedding overload. Each cell reports goodput, tail latency and
// the recovery/shed/abort split, so the grid shows what the §IV-B
// fail-closed machinery costs and what the policy layer buys back.
func ResilienceBench(seed int64, cfg SweepConfig) (*SweepResult, error) {
	n := cfg.requests(24)
	loads := orDefault(cfg.LoadsPerM, []float64{0.2, 0.8})
	// The fault rates stay low because an idle core accrues every overdue
	// event and delivers the burst at dispatch, so rates beyond a few per
	// Mcyc make every first attempt lethal.
	rates := []float64{0.1, 1}
	var points []sweepPoint
	for i := 0; i < len(rates)*len(loads); i++ {
		rate, load := rates[i/len(loads)], loads[i%len(loads)]
		s := seed + int64(i)*104729
		// ServeTrace with every request deadlined: its sparse finish
		// deadlines stay, and the rest get a looser one at arrival +
		// 16/load Mcyc.
		trace := ServeTrace(s, load, n, serveTenants)
		for j := range trace {
			if trace[j].Deadline == 0 {
				trace[j].Deadline = trace[j].Arrival + sim.Cycle(16e6/load)
			}
		}
		// The plan's horizon is a function of the trace shape alone
		// (never a control run, so no cell depends on another's timing)
		// and generously covers the makespan; later events never fire.
		horizon := sim.Cycle(float64(n)/load*1e6) + 100_000_000
		plan := fault.Generate(s, horizon, fault.TransientRates(rate))
		points = append(points, sweepPoint{
			label: fmt.Sprintf("resilience cell fault=%g load=%g", rate, load),
			seed:  s,
			row:   SweepRow{FaultPerM: rate, LoadPerM: load},
			// Two retries with the default backoff; five-deep tenant queues.
			cfg:       sched.Config{Cores: serveCores, MaxRestarts: 2, MaxQueuePerTenant: 5},
			trace:     trace,
			faults:    &plan,
			keyed:     serveTenants,
			plaintext: func(sealKey string) string { return "resilience model " + sealKey },
		})
	}
	return runSweep(seed, []sweepColumn{
		{"fault/Mcyc", "%g", func(r SweepRow) any { return r.FaultPerM }},
		colLoad, colReqs, colDone,
		{"goodput/Mcyc", "%.3f", func(r SweepRow) any { return r.ThroughputPerM }},
		colP50, colP99,
		{"retries", "%d", func(r SweepRow) any { return r.Retries }},
		{"recovered", "%d", func(r SweepRow) any { return r.Recovered }},
		{"shed", "%d", func(r SweepRow) any { return r.Shed }},
		colDrop, colAbort, colRej, colFlush,
	}, points)
}

// decodeSpecFor is the per-tenant decode geometry: small enough that a
// sweep cell stays fast, distinct enough that the same-spec batching
// guard is load-bearing.
func decodeSpecFor(tenant int) workload.DecodeSpec {
	return workload.DecodeSpec{Layers: 1, Hidden: 64, Heads: 4, FFN: 128, Prompt: 8 + 4*tenant, Steps: 3 + tenant}
}

// DecodeTrace generates the deterministic decode trace shared by every
// batch point: n decode requests round-robined over tenants with
// staggered arrivals (so later requests join running batches), plus
// one higher-priority plain secure request per episode that preempts a
// decode batch mid-stream — proving KV residency costs show up in the
// measured inter-token tail, not in correctness. Exposed so the
// differential tests can replay the exact trace the bench ran.
func DecodeTrace(seed int64, n, tenants int) []sched.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]sched.Request, 0, n+1)
	var at float64
	for i := 1; i <= n; i++ {
		at += rng.ExpFloat64() * 60_000
		tenant := rng.Intn(tenants)
		spec := decodeSpecFor(tenant)
		reqs = append(reqs, sched.Request{
			ID:       i,
			Tenant:   fmt.Sprintf("t%d", tenant),
			Secure:   true,
			Decode:   &spec,
			Arrival:  sim.Cycle(at),
			Priority: sched.Priority(rng.Intn(2)),
		})
	}
	reqs = append(reqs, sched.Request{
		ID: n + 1, Tenant: "t0", Model: "mobilenet", Secure: true, Priority: 6,
		KeyID:   "t0-key",
		Arrival: sim.Cycle(at / 2),
	})
	return reqs
}

// DecodeBench runs the batch-width sweep over autoregressive decode
// with KV-cache residency and continuous batching. Every point replays
// the same seeded trace, so the sweep isolates what batching buys:
// tokens/sec (1 GHz cycle model) against the inter-token tail as
// members interleave.
func DecodeBench(seed int64, cfg SweepConfig) (*SweepResult, error) {
	n := cfg.requests(10)
	var points []sweepPoint
	for _, batch := range orDefault(cfg.Batches, []int{1, 2, 4}) {
		points = append(points, sweepPoint{
			label: fmt.Sprintf("decode batch %d", batch),
			seed:  seed,
			row:   SweepRow{MaxBatch: batch},
			cfg:   sched.Config{Cores: []int{0, 1}, MaxBatch: batch},
			// Two tenants, each decoding its own spec, so batches never
			// mix specs.
			trace: DecodeTrace(seed, n, 2),
			// Only the plain preemptor is sealed, under t0's key.
			keyed:     1,
			plaintext: func(string) string { return "decode preemptor model" },
		})
	}
	return runSweep(seed, []sweepColumn{
		{"batch", "%d", func(r SweepRow) any { return r.MaxBatch }},
		colReqs, colDone,
		{"tokens", "%d", func(r SweepRow) any { return r.Tokens }},
		{"makespan-cyc", "%d", func(r SweepRow) any { return r.Makespan }},
		{"tok/s@1GHz", "%.0f", func(r SweepRow) any { return r.TokensPerSec }},
		{"p50-itl-cyc", "%d", func(r SweepRow) any { return r.P50ITL }},
		{"p99-itl-cyc", "%d", func(r SweepRow) any { return r.P99ITL }},
		{"joins", "%d", func(r SweepRow) any { return r.Joins }},
		colBatched, colPreempts, colFlush,
	}, points)
}
