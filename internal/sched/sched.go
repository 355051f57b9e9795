// Package sched is the multi-tenant secure task scheduler layered on
// the NPU Monitor's primitives (§IV-B, §IV-C): it admits a stream of
// secure and non-secure inference requests (per-tenant queues,
// priorities, deadlines), packs them onto NPU cores through the
// monitor trampoline, preempts with the mandatory flush-on-switch and
// ID-bit reassignment of §IV-B, backfills idle cores with non-secure
// work, and batches same-model requests from one tenant to amortize
// the monitor's sealing/verification cost. The serving layer itself is
// beyond the paper; every isolation-relevant action it takes goes
// through the monitor, so the scheduler stays untrusted (§III threat
// model) — a buggy or malicious scheduler can waste cycles but cannot
// weaken isolation, which the property suite pins.
//
// Everything is cycle-deterministic: decisions depend only on the
// submitted requests (never wall clock, map order, or goroutine
// interleaving), so one request trace replays to byte-identical
// per-request cycle counts and decision logs at any worker-pool width
// and across fresh System instances.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/driver"
	"repro/internal/guarder"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/npu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/workload"
)

// Errors the scheduler surfaces to submitters. ErrTaskAborted is
// deliberately opaque: whatever went wrong inside the secure world, the
// untrusted side learns only that the task is gone.
var (
	ErrTaskAborted   = errors.New("sched: task aborted")
	ErrDuplicateID   = errors.New("sched: duplicate request id")
	ErrNoMonitor     = errors.New("sched: secure request on a system without a monitor")
	ErrAlreadyRan    = errors.New("sched: scheduler already ran")
	ErrBadRequest    = errors.New("sched: bad request")
	ErrModelTooLarge = errors.New("sched: sealed model exceeds the size cap")
)

// MaxSealedBytes caps a secure request's sealed-model payload; the
// serve API turns an oversized blob into a 4xx before it reaches the
// monitor.
const MaxSealedBytes = 8 << 20

// DefaultMaxBatch is the same-model batching width when Config.MaxBatch
// is zero.
const DefaultMaxBatch = 4

// DefaultSubmitBaseCycles models the fixed per-FnSubmit cost of the
// monitor's verification + attestation handshake: batching exists to
// pay it once per batch instead of once per request. The streaming
// part (unsealing the model at DRAM bandwidth) is added per blob.
const DefaultSubmitBaseCycles sim.Cycle = 10000

// Priority orders requests; higher runs first and may preempt lower.
type Priority int

// Request is one inference submission.
type Request struct {
	// ID is the caller-assigned unique id (> 0).
	ID int
	// Tenant names the submitting tenant; per-tenant queues and the
	// fairness metric key off it.
	Tenant string
	// Model is a built-in workload name. When Workload is set, Model is
	// a display label only and defaults to Workload.Name.
	Model string
	// Workload, when non-nil, is a custom (graph-IR-derived) workload to
	// run instead of a registry model. Submit validates it and takes a
	// private deep copy; secure custom workloads batch only with
	// requests compiled from a byte-identical graph.
	Workload *workload.Workload
	// Secure routes the request through the NPU Monitor.
	Secure   bool
	Priority Priority
	// Arrival is the request's arrival cycle on the simulated clock.
	Arrival sim.Cycle
	// Deadline, when non-zero, is the latest finish cycle. Admission
	// rejects a request that cannot possibly finish by then (its
	// compute-cycle floor already overshoots), dispatch drops members
	// whose floor no longer fits, and a run that crosses its deadline
	// is cut deterministically at the next tile boundary — a secure cut
	// still pays the §IV-B flush before the core is reused.
	Deadline sim.Cycle
	// KeyID and Sealed carry the secure payload: the tenant's
	// provisioned sealing-key name and the sealed model blob.
	KeyID  string
	Sealed []byte
	// Decode, when non-nil, makes this an autoregressive decode request:
	// a prefill pass plus Decode.Steps single-token passes, each pass
	// boundary a token boundary the continuous batcher interleaves and
	// joins/leaves at. Decode requests must be Secure (the resident KV
	// cache is monitor-mediated) and are mutually exclusive with
	// Workload; Model defaults to the spec's deterministic name.
	Decode *workload.DecodeSpec
}

// Result reports one request's outcome.
type Result struct {
	ID      int       `json:"id"`
	Tenant  string    `json:"tenant"`
	Model   string    `json:"model"`
	Secure  bool      `json:"secure"`
	Arrival sim.Cycle `json:"arrival"`
	// Start is the first cycle the request's program ran; Finish is
	// its retire cycle. Latency = Finish - Arrival.
	Start  sim.Cycle `json:"start"`
	Finish sim.Cycle `json:"finish"`
	Core   int       `json:"core"`
	// Preemptions counts evictions this request suffered.
	Preemptions int `json:"preemptions"`
	// Batched marks a request that rode a batch-mate's FnSubmit.
	Batched bool `json:"batched"`
	// Retries counts fault-retry resubmissions this request consumed.
	Retries int `json:"retries,omitempty"`
	// Completed / Dropped / Aborted / Rejected / Shed partition
	// outcomes.
	Completed bool `json:"completed"`
	Dropped   bool `json:"dropped,omitempty"`
	Aborted   bool `json:"aborted,omitempty"`
	Rejected  bool `json:"rejected,omitempty"`
	// Shed marks a victim of per-tenant admission backpressure: a
	// full queue made room for a strictly higher-priority arrival.
	Shed bool `json:"shed,omitempty"`
	// Retryable marks an aborted result whose failure class (an
	// execution fault, not an isolation violation) makes a client
	// retry worthwhile. The error string itself stays equally opaque
	// for both classes.
	Retryable bool   `json:"retryable,omitempty"`
	Err       string `json:"err,omitempty"`
	// Tokens counts the tokens a decode request emitted (prefill emits
	// the first); zero for conventional requests. A partially decoded
	// request (deadline cut mid-stream) reports the tokens it streamed.
	Tokens int `json:"tokens,omitempty"`
}

// Latency is Finish - Arrival for completed requests.
func (r Result) Latency() sim.Cycle { return r.Finish - r.Arrival }

// Config tunes one scheduler instance.
type Config struct {
	// Cores lists the NPU cores the scheduler owns (default: all).
	Cores []int
	// Workers bounds the parallel program-compile pool in Run's
	// prepare phase (default GOMAXPROCS). Compilation is pure, so the
	// width never changes a single scheduling decision.
	Workers int
	// MaxBatch bounds same-tenant same-model secure batching
	// (default DefaultMaxBatch; 1 disables batching).
	MaxBatch int
	// SubmitBaseCycles overrides the per-FnSubmit fixed cost
	// (default DefaultSubmitBaseCycles).
	SubmitBaseCycles sim.Cycle
	// MaxRestarts enables fault retries for secure requests: a task
	// aborted by an execution fault re-enters the queue (after an
	// exponential backoff) up to MaxRestarts times per request,
	// restarting from its last completed layer checkpoint through a
	// fresh FnSubmit. 0 disables retries — a fault aborts terminally,
	// exactly the pre-policy behavior.
	MaxRestarts int
	// RetryBackoff is the base retry delay in cycles (default
	// DefaultRetryBackoff); attempt n waits RetryBackoff << (n-1).
	RetryBackoff sim.Cycle
	// MaxQueuePerTenant bounds how many non-terminal requests one
	// tenant may have queued in the episode (0 = unlimited). A full
	// queue sheds its least-urgent member to make room for a strictly
	// higher-priority arrival, else refuses with ErrQueueFull.
	MaxQueuePerTenant int
	// Breaker, when set, quarantines tenants whose tasks repeatedly
	// abort; it persists across episodes (the serve daemon owns it).
	Breaker *Breaker
	// OnDecision, when set, observes every scheduling decision as it
	// is made (the property tests hook probes here).
	OnDecision func(Decision)
}

// Deps wires the scheduler to one simulated SoC. Monitor may be nil on
// the unprotected baseline, which then serves non-secure requests only.
type Deps struct {
	NPU     *npu.NPU
	Monitor *monitor.Monitor
	Driver  *driver.Driver
	Cfg     npu.Config
	Stats   *sim.Stats
}

// reqState tracks one request through its lifetime.
type reqState struct {
	req Request
	// progs holds one compiled program per pass: the single pass of a
	// conventional request, or a decode session's prefill followed by
	// one pass per step. progs[0] is what FnSubmit verifies and
	// measures. pass is the cursor (passes completed so far).
	progs []*npu.Program
	pass  int
	// minExec is the compute-cycle floor (the passes' peak-rate lower
	// bound) used for deadline feasibility — it never overestimates, so
	// feasibility rejection is sound.
	minExec sim.Cycle
	// tokenEnds records a decode request's per-token retire cycles (one
	// per completed pass); empty for conventional requests.
	tokenEnds []sim.Cycle

	ex      *npu.Exec
	started bool
	start   sim.Cycle
	finish  sim.Cycle
	core    int

	task *driver.Task // non-secure DMA chunk

	preempts int
	batched  bool

	// attempts / checkpoint / retryAt drive the fault-retry ladder:
	// attempts counts consumed restarts, checkpoint is the last
	// completed layer boundary (restart skips to it and pays the
	// restore flush), retryAt is when the backoff expires.
	attempts   int
	checkpoint int
	retryAt    sim.Cycle

	terminal  bool
	completed bool
	dropped   bool
	aborted   bool
	rejected  bool
	shed      bool
	retryable bool
	errMsg    string
}

// job is the dispatch unit: a single non-secure request, or a batch of
// same-tenant same-model secure requests sharing one monitor task.
// Members take turns one pass at a time: cursor round-robins over the
// live members, so one-pass members run serially in join order while
// decode members interleave token by token.
type job struct {
	members []*reqState
	cursor  int
	secure  bool
	monID   int // monitor task id (secure)
	prio    Priority
	arrival sim.Cycle
	leadID  int
	// loadCost is the one-time FnSubmit amortization charged at first
	// load (verification handshake + streaming unseal).
	loadCost sim.Cycle
	// slot/mapped track the non-secure translation window.
	slot   int
	mapped bool
	coreID int // affine core once started (-1 before)

	// kvLines is the resident KV window claimed for a decode job's
	// monitor task (0 until the first load's FnKVAlloc).
	kvLines int
}

func (j *job) lead() *reqState { return j.members[0] }

// decode is the batch's decode spec; nil for a conventional batch.
func (j *job) decode() *workload.DecodeSpec { return j.lead().req.Decode }

func (j *job) cur() *reqState { return j.members[j.cursor] }

func (j *job) done() bool { return j.remaining() == 0 }

// remaining counts members still owed work.
func (j *job) remaining() int {
	n := 0
	for _, m := range j.members {
		if !m.terminal {
			n++
		}
	}
	return n
}

// rotate advances the cursor to the next live member.
func (j *job) rotate() {
	for range j.members {
		j.cursor = (j.cursor + 1) % len(j.members)
		if !j.cur().terminal {
			return
		}
	}
}

// curProg is the program of the member's current pass.
func (m *reqState) curProg() *npu.Program { return m.progs[m.pass] }

// coreState is one owned core's scheduling state.
type coreState struct {
	id     int
	core   *npu.Core
	freeAt sim.Cycle
	cur    *job
	resume []*job // preempted jobs, affine to this core
	slots  []bool // translation-window slots 1..DefaultTransRegs-1; true = taken
}

// Scheduler runs one deterministic scheduling episode. It is not safe
// for concurrent use; callers (the serve daemon) serialize access.
type Scheduler struct {
	deps Deps
	cfg  Config

	all  []*reqState
	byID map[int]*reqState
	ran  bool

	// run-time state
	future   []*reqState
	waitlist []*reqState // admitted-pending: out of secure/reserved memory
	retryQ   []*reqState // fault-aborted, waiting out a retry backoff
	ready    []*job
	cores    []*coreState
	openJobs []*job // batch-joinable secure jobs
	memFreed bool

	tenantQueued map[string]int // non-terminal submissions per tenant

	decisions   []Decision
	flushCycles sim.Cycle

	obsDispatch, obsPreempt, obsComplete *obs.Counter
	obsReject, obsAbort, obsBatch        *obs.Counter
	obsRetry, obsDeadlineMiss            *obs.Counter
	obsLatency                           *obs.Histogram
}

// New validates deps and builds an empty scheduler.
func New(deps Deps, cfg Config) (*Scheduler, error) {
	if deps.NPU == nil || deps.Driver == nil {
		return nil, fmt.Errorf("sched: nil NPU or Driver")
	}
	if len(cfg.Cores) == 0 {
		cfg.Cores = make([]int, deps.Cfg.Tiles)
		for i := range cfg.Cores {
			cfg.Cores[i] = i
		}
	}
	seen := make(map[int]bool, len(cfg.Cores))
	for _, ci := range cfg.Cores {
		if _, err := deps.NPU.Core(ci); err != nil {
			return nil, err
		}
		if seen[ci] {
			return nil, fmt.Errorf("sched: core %d listed twice", ci)
		}
		seen[ci] = true
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.SubmitBaseCycles <= 0 {
		cfg.SubmitBaseCycles = DefaultSubmitBaseCycles
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	return &Scheduler{
		deps: deps, cfg: cfg,
		byID:         make(map[int]*reqState),
		tenantQueued: make(map[string]int),
	}, nil
}

// AttachObserver wires scheduler counters and the request-latency
// histogram into an observability registry. Nil detaches.
func (s *Scheduler) AttachObserver(o *obs.Observer) {
	if o == nil {
		s.obsDispatch, s.obsPreempt, s.obsComplete = nil, nil, nil
		s.obsReject, s.obsAbort, s.obsBatch, s.obsLatency = nil, nil, nil, nil
		s.obsRetry, s.obsDeadlineMiss = nil, nil
		return
	}
	scope := o.Registry().Scope("sched")
	s.obsDispatch = scope.Counter("dispatch.count")
	s.obsPreempt = scope.Counter("preempt.count")
	s.obsComplete = scope.Counter("complete.count")
	s.obsReject = scope.Counter("reject.count")
	s.obsAbort = scope.Counter("abort.count")
	s.obsBatch = scope.Counter("batch.count")
	s.obsRetry = scope.Counter("retry")
	s.obsDeadlineMiss = scope.Counter("deadline_miss")
	s.obsLatency = scope.Histogram("latency.cycles", obs.DefaultCycleBuckets())
}

// Submit validates and queues one request. Validation is the
// front-door admission control: unknown models, duplicate IDs,
// oversized sealed blobs, and secure requests on a monitor-less system
// are refused here (the serve API maps these to 4xx).
func (s *Scheduler) Submit(r Request) error {
	if s.ran {
		return ErrAlreadyRan
	}
	if r.ID <= 0 {
		return fmt.Errorf("%w: id must be > 0", ErrBadRequest)
	}
	if _, dup := s.byID[r.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, r.ID)
	}
	if r.Tenant == "" {
		return fmt.Errorf("%w: empty tenant", ErrBadRequest)
	}
	if r.Deadline > 0 && r.Deadline <= r.Arrival {
		return fmt.Errorf("%w: deadline %d not after arrival %d", ErrBadRequest, r.Deadline, r.Arrival)
	}
	if !s.cfg.Breaker.Allow(r.Tenant) {
		return fmt.Errorf("%w: %s", ErrTenantQuarantined, r.Tenant)
	}
	if r.Decode != nil {
		if !r.Secure {
			return fmt.Errorf("%w: decode requests must be secure (resident KV is monitor-mediated)", ErrBadRequest)
		}
		if r.Workload != nil {
			return fmt.Errorf("%w: decode and workload are mutually exclusive", ErrBadRequest)
		}
		if err := r.Decode.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		spec := *r.Decode
		r.Decode = &spec
		if r.Model == "" {
			r.Model = spec.ModelName()
		}
	}
	if r.Workload != nil {
		if err := r.Workload.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if r.Model == "" {
			r.Model = r.Workload.Name
		}
		clone := r.Workload.Clone()
		r.Workload = &clone
	} else if r.Decode == nil {
		if _, err := workload.Lookup(r.Model); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if r.Secure {
		if s.deps.Monitor == nil {
			return ErrNoMonitor
		}
		if len(r.Sealed) > MaxSealedBytes {
			return fmt.Errorf("%w: %d > %d bytes", ErrModelTooLarge, len(r.Sealed), MaxSealedBytes)
		}
		if len(r.Sealed) > 0 && r.KeyID == "" {
			return fmt.Errorf("%w: sealed model without a key id", ErrBadRequest)
		}
	}
	if s.cfg.MaxQueuePerTenant > 0 && s.tenantQueued[r.Tenant] >= s.cfg.MaxQueuePerTenant {
		victim := s.shedVictim(r.Tenant)
		if victim == nil || victim.req.Priority >= r.Priority {
			return fmt.Errorf("%w: %s at %d", ErrQueueFull, r.Tenant, s.cfg.MaxQueuePerTenant)
		}
		s.shed(victim, r.Arrival, r.ID)
	}
	r.Sealed = append([]byte(nil), r.Sealed...)
	rs := &reqState{req: r, core: -1}
	s.all = append(s.all, rs)
	s.byID[r.ID] = rs
	s.tenantQueued[r.Tenant]++
	return nil
}

// shedVictim picks the tenant's least-urgent queued request: lowest
// priority, then latest arrival, then highest id — the exact reverse of
// the dispatch order, so shedding always sacrifices what would have run
// last.
func (s *Scheduler) shedVictim(tenant string) *reqState {
	var victim *reqState
	for _, rs := range s.all {
		if rs.terminal || rs.req.Tenant != tenant {
			continue
		}
		if victim == nil || reqLess(victim, rs) {
			victim = rs
		}
	}
	return victim
}

// shed retires a queue-bound victim: deterministic load shedding, not a
// failure of the request itself — the serve layer maps it to 429 with a
// Retry-After hint.
func (s *Scheduler) shed(rs *reqState, at sim.Cycle, forID int) {
	rs.terminal, rs.shed = true, true
	rs.errMsg = "sched: shed by tenant queue bound"
	s.tenantQueued[rs.req.Tenant]--
	s.decide(at, -1, "shed", rs, fmt.Sprintf("for req %d", forID))
}

// Pending reports queued, not-yet-run requests.
func (s *Scheduler) Pending() int {
	if s.ran {
		return 0
	}
	return len(s.all)
}

// Report is one episode's outcome: per-request results (ascending
// request ID) plus the full decision log.
type Report struct {
	Results   []Result
	Decisions []Decision
	// Makespan is the last retire cycle.
	Makespan sim.Cycle
	// FlushCycles is the total context-switch save/restore cost paid.
	FlushCycles                                 sim.Cycle
	Completed, Rejected, Dropped, Aborted, Shed int
	Preemptions                                 int
	// BatchedRuns counts requests that shared a batch-mate's FnSubmit.
	BatchedRuns int
	// Retries is total fault-retry resubmissions; Recovered counts
	// requests that completed after at least one retry.
	Retries, Recovered int
	// Tokens is the total autoregressive tokens emitted by decode
	// requests; TokenTimes maps a decode request's ID to the cycle each
	// of its tokens retired at (in emission order), for inter-token
	// latency analysis.
	Tokens     int
	TokenTimes map[int][]sim.Cycle
}

// DecisionLog renders the decision stream, one line per decision.
func (r *Report) DecisionLog() string {
	var b strings.Builder
	for _, d := range r.Decisions {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ResultByID finds one request's result (nil if unknown).
func (r *Report) ResultByID(id int) *Result {
	for i := range r.Results {
		if r.Results[i].ID == id {
			return &r.Results[i]
		}
	}
	return nil
}

// Run executes every submitted request to a terminal state and
// consumes the scheduler (a second Run returns ErrAlreadyRan).
func (s *Scheduler) Run() (*Report, error) {
	if s.ran {
		return nil, ErrAlreadyRan
	}
	s.ran = true
	s.deps.NPU.ResetTiming()
	s.prepare()

	for _, ci := range s.cfg.Cores {
		core, err := s.deps.NPU.Core(ci)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, &coreState{
			id: ci, core: core, slots: make([]bool, guarder.DefaultTransRegs),
		})
	}
	for _, rs := range s.all {
		if !rs.terminal {
			s.future = append(s.future, rs)
		}
	}
	sort.SliceStable(s.future, func(i, j int) bool {
		a, b := s.future[i], s.future[j]
		if a.req.Arrival != b.req.Arrival {
			return a.req.Arrival < b.req.Arrival
		}
		return a.req.ID < b.req.ID
	})

	var clock sim.Cycle
	for {
		if s.memFreed {
			s.memFreed = false
			s.retryWaitlist(clock)
		}
		s.admitUpTo(clock)
		s.dispatchIdle(clock)

		// Choose the next event: the laggard busy core, unless an
		// arrival lands first.
		var c *coreState
		for _, cs := range s.cores {
			if cs.cur == nil {
				continue
			}
			if c == nil || cs.freeAt < c.freeAt || (cs.freeAt == c.freeAt && cs.id < c.id) {
				c = cs
			}
		}
		if c == nil {
			if t, ok := s.nextPending(); ok {
				clock = t
				continue
			}
			if s.outstanding() == 0 {
				break
			}
			// Nothing runs, nothing arrives, work remains: the leftover
			// requests can never be placed. Fail them closed.
			s.rejectStranded(clock)
			break
		}
		if t, ok := s.nextPending(); ok && t < c.freeAt {
			clock = t
			continue
		}
		if c.freeAt > clock {
			clock = c.freeAt
		}
		s.advance(c)
	}
	return s.assemble(), nil
}

// nextPending is the earliest future event the scheduler must wake
// for: the next arrival or the next retry-backoff expiry.
func (s *Scheduler) nextPending() (sim.Cycle, bool) {
	var t sim.Cycle
	ok := false
	if len(s.future) > 0 {
		t, ok = s.future[0].req.Arrival, true
	}
	if len(s.retryQ) > 0 && (!ok || s.retryQ[0].retryAt < t) {
		t, ok = s.retryQ[0].retryAt, true
	}
	return t, ok
}

// outstanding counts non-terminal requests still queued somewhere.
func (s *Scheduler) outstanding() int {
	n := len(s.waitlist) + len(s.retryQ)
	for _, j := range s.ready {
		n += j.remaining()
	}
	for _, cs := range s.cores {
		for _, j := range cs.resume {
			n += j.remaining()
		}
	}
	return n
}

// workload resolves the request's workload: the submitted custom graph
// when one was attached, the registry model otherwise.
func (rs *reqState) workload() (workload.Workload, error) {
	if rs.req.Workload != nil {
		return *rs.req.Workload, nil
	}
	return workload.Lookup(rs.req.Model)
}

// prepare compiles every request's passes on a worker pool.
// Compilation is pure — the pool width cannot change any result — and
// per-request layouts keep VA spans non-aliasing (secure programs use
// the monitor's fixed layout; the per-core slot-0 window disambiguates).
func (s *Scheduler) prepare() {
	n := len(s.all)
	if n == 0 {
		return
	}
	w := s.cfg.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	compile := func(rs *reqState) {
		if rs.terminal { // shed at submit time: nothing to compile
			return
		}
		// One workload per pass: a decode session's prefill and steps,
		// or the single custom or registry model.
		var passes []workload.Workload
		if rs.req.Decode != nil {
			passes = rs.req.Decode.Passes()
		} else {
			wl, err := rs.workload()
			if err != nil {
				rs.errMsg = err.Error()
				return
			}
			passes = []workload.Workload{wl}
		}
		layout := npu.DefaultLayout
		if !rs.req.Secure {
			layout = driver.LayoutFor(rs.req.ID)
		}
		// CompileCached makes the repeated decode-step shapes cheap
		// across same-spec requests.
		progs := make([]*npu.Program, len(passes))
		var floor sim.Cycle
		for i, p := range passes {
			prog, _, err := npu.CompileCached(p, s.deps.Cfg, 0, layout)
			if err != nil {
				rs.errMsg = err.Error()
				return
			}
			progs[i] = prog
			floor += sim.Cycle(prog.IdealComputeCycles)
		}
		rs.progs, rs.minExec = progs, floor
	}
	if w <= 1 {
		for _, rs := range s.all {
			compile(rs)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					compile(s.all[i])
				}
			}()
		}
		wg.Wait()
	}
	// Reject compile failures in ID order, before the event loop.
	ordered := append([]*reqState(nil), s.all...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].req.ID < ordered[j].req.ID })
	for _, rs := range ordered {
		if rs.progs == nil && !rs.terminal {
			s.reject(rs, rs.req.Arrival, rs.errMsg)
		}
	}
}

// admitUpTo moves arrivals and expired retry backoffs due by `t` into
// the scheduler in event order: secure requests go through monitor
// admission (verify + secure-memory allocation) or join an open batch;
// non-secure requests take their DMA chunk from reserved memory.
// Out-of-memory admissions waitlist. Arrivals win retry ties so a
// retried task never jumps ahead of fresh work due the same cycle.
func (s *Scheduler) admitUpTo(t sim.Cycle) {
	for {
		hasF := len(s.future) > 0 && s.future[0].req.Arrival <= t
		hasR := len(s.retryQ) > 0 && s.retryQ[0].retryAt <= t
		switch {
		case hasF && (!hasR || s.future[0].req.Arrival <= s.retryQ[0].retryAt):
			rs := s.future[0]
			s.future = s.future[1:]
			s.admit(rs, rs.req.Arrival)
		case hasR:
			rs := s.retryQ[0]
			s.retryQ = s.retryQ[1:]
			s.admit(rs, rs.retryAt)
		default:
			return
		}
	}
}

func (s *Scheduler) admit(rs *reqState, at sim.Cycle) {
	// Reject-on-admit: a deadline the compute floor already overshoots
	// can never be met — refuse it instead of burning cycles. Retried
	// members were re-checked when their backoff was scheduled.
	if rs.attempts == 0 && rs.req.Deadline > 0 && at+rs.minExec > rs.req.Deadline {
		s.reject(rs, at, "deadline infeasible")
		return
	}
	if rs.req.Secure {
		// A retried task resubmits through the full verification path:
		// no riding an open batch's earlier FnSubmit.
		if j := s.joinableBatch(rs); j != nil && rs.attempts == 0 {
			rs.batched = true
			j.members = append(j.members, rs)
			if rs.req.Priority > j.prio {
				j.prio = rs.req.Priority
			}
			s.obsBatch.Inc()
			if rs.req.Decode != nil {
				// Continuous batching: the member joins a possibly
				// running batch; the round-robin cursor reaches it at
				// the next token boundary.
				s.decide(at, -1, "join", rs, fmt.Sprintf("joined req %d (%d live)", j.leadID, j.remaining()))
			} else {
				s.decide(at, -1, "batch", rs, fmt.Sprintf("joined req %d (%d/%d)", j.leadID, len(j.members), s.cfg.MaxBatch))
			}
			return
		}
		rep := s.deps.Monitor.Dispatch(monitor.Call{
			Func:     monitor.FnSubmit,
			Shared:   rs.req.Sealed,
			Program:  rs.progs[0],
			Expected: rs.progs[0].Measurement(),
			KeyID:    rs.req.KeyID,
		})
		if rep.Err != nil {
			if errors.Is(rep.Err, mem.ErrNoSpace) {
				s.waitlist = append(s.waitlist, rs)
				s.decide(at, -1, "defer", rs, "secure memory full")
				return
			}
			s.reject(rs, at, rep.Err.Error())
			return
		}
		j := &job{
			members: []*reqState{rs}, secure: true, monID: int(rep.Value),
			prio: rs.req.Priority, arrival: rs.req.Arrival, leadID: rs.req.ID,
			loadCost: s.submitCost(rs), coreID: -1,
		}
		s.ready = append(s.ready, j)
		s.openJobs = append(s.openJobs, j)
		s.decide(at, -1, "admit", rs, "secure")
		return
	}
	wl, _ := rs.workload()
	task, err := s.deps.Driver.SubmitProgram(wl, rs.progs[0], false)
	if err != nil {
		if errors.Is(err, mem.ErrNoSpace) {
			s.waitlist = append(s.waitlist, rs)
			s.decide(at, -1, "defer", rs, "reserved memory full")
			return
		}
		s.reject(rs, at, err.Error())
		return
	}
	rs.task = task
	j := &job{
		members: []*reqState{rs}, prio: rs.req.Priority,
		arrival: rs.req.Arrival, leadID: rs.req.ID, coreID: -1,
	}
	s.ready = append(s.ready, j)
	s.decide(at, -1, "admit", rs, "non-secure")
}

// joinableBatch finds an open secure job this request may ride:
// same tenant, model, key, and compiled source digest, with batch
// room, not yet torn down. The digest check is what makes batching
// safe for graph-submitted workloads: two custom graphs may share a
// display name, but only byte-identical lowered sources may share one
// FnSubmit. For registry models the name already implies the digest,
// so the extra check never changes a built-in schedule.
func (s *Scheduler) joinableBatch(rs *reqState) *job {
	if s.cfg.MaxBatch <= 1 {
		return nil
	}
	for _, j := range s.openJobs {
		// A continuous decode batch frees a seat whenever a member
		// leaves, so the bound is on live members; a conventional batch
		// never shrinks.
		spec, seats := j.decode(), len(j.members)
		if spec != nil {
			seats = j.remaining()
		}
		if seats >= s.cfg.MaxBatch {
			continue
		}
		if (spec == nil) != (rs.req.Decode == nil) || (spec != nil && *spec != *rs.req.Decode) {
			continue
		}
		lead := j.lead()
		if lead.req.Tenant == rs.req.Tenant && lead.req.Model == rs.req.Model &&
			lead.req.KeyID == rs.req.KeyID &&
			lead.progs[0].SourceDigest == rs.progs[0].SourceDigest {
			return j
		}
	}
	return nil
}

// closeBatch removes a finished/destroyed job from the joinable set.
func (s *Scheduler) closeBatch(j *job) {
	for i, o := range s.openJobs {
		if o == j {
			s.openJobs = append(s.openJobs[:i], s.openJobs[i+1:]...)
			return
		}
	}
}

// submitCost is the one-time monitor-side cost a job pays at first
// load: the fixed verification/attestation handshake plus streaming
// the sealed blob through the unsealing path at DRAM bandwidth.
func (s *Scheduler) submitCost(rs *reqState) sim.Cycle {
	bw := s.deps.Cfg.DRAMBytesPerCycle
	if bw == 0 {
		bw = 1
	}
	cost := s.cfg.SubmitBaseCycles
	if n := len(rs.req.Sealed); n > 0 {
		cost += sim.Cycle(uint64(n)/bw) + s.deps.Cfg.DRAMLatency
	}
	return cost
}

// retryWaitlist re-attempts admission for memory-starved requests in
// (priority, arrival, id) order after something freed memory.
func (s *Scheduler) retryWaitlist(at sim.Cycle) {
	if len(s.waitlist) == 0 {
		return
	}
	wl := s.waitlist
	s.waitlist = nil
	sort.SliceStable(wl, func(i, j int) bool { return reqLess(wl[i], wl[j]) })
	for _, rs := range wl {
		s.admit(rs, at)
	}
}

// reqLess is the global request order: priority desc, arrival asc, id
// asc.
func reqLess(a, b *reqState) bool {
	if a.req.Priority != b.req.Priority {
		return a.req.Priority > b.req.Priority
	}
	if a.req.Arrival != b.req.Arrival {
		return a.req.Arrival < b.req.Arrival
	}
	return a.req.ID < b.req.ID
}

func jobLess(a, b *job) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.leadID < b.leadID
}

// dispatchIdle places jobs on every idle core.
func (s *Scheduler) dispatchIdle(clock sim.Cycle) {
	for _, c := range s.cores {
		if c.cur != nil {
			continue
		}
		s.dispatchOn(c, clock)
	}
}

// canHost reports whether core c could start job j now: resumed jobs
// are affine to their core; fresh non-secure jobs need a free
// translation-window slot.
func (s *Scheduler) canHost(c *coreState, j *job) bool {
	if j.coreID >= 0 && j.coreID != c.id {
		return false
	}
	if !j.secure && !j.mapped && s.deps.Monitor != nil && s.freeSlot(c) < 0 {
		return false
	}
	return true
}

// freeSlot finds the lowest free window slot on c (slot 0 is the
// monitor's secure-task window).
func (s *Scheduler) freeSlot(c *coreState) int {
	for i := 1; i < len(c.slots); i++ {
		if !c.slots[i] {
			return i
		}
	}
	return -1
}

// dispatchOn picks the best placeable job for idle core c and starts
// it. Deadline-expired leads are dropped here, at their first start
// opportunity.
func (s *Scheduler) dispatchOn(c *coreState, clock sim.Cycle) {
	start := c.freeAt
	if clock > start {
		start = clock
	}
	for {
		j, fromResume := s.pickFor(c, start)
		if j == nil {
			return
		}
		// Drop members that can no longer meet their finish deadline:
		// every expired member of a decode batch, only the head of a
		// conventional batch's line.
		if j.decode() != nil {
			for _, m := range j.members {
				if !m.terminal && s.deadlineExpired(m, start) {
					s.drop(m, start, c.id)
				}
			}
			if !j.done() && j.cur().terminal {
				j.rotate()
			}
		} else {
			s.dropExpiredHead(c, j, start)
		}
		if j.done() {
			s.teardownJob(c, j, start, monitor.FnUnload)
			continue
		}
		s.startJob(c, j, start, fromResume)
		return
	}
}

// deadlineExpired reports whether member m can no longer meet its
// finish deadline when (re)started at `at`: a never-run member needs
// at least its compute floor; an in-flight or retried member is cut
// once the clock itself passes the deadline (the mid-run miss check in
// advance handles the rest).
func (s *Scheduler) deadlineExpired(m *reqState, at sim.Cycle) bool {
	if m.req.Deadline == 0 {
		return false
	}
	if m.ex == nil && m.attempts == 0 && !m.started {
		return at+m.minExec > m.req.Deadline
	}
	return at > m.req.Deadline
}

// pickFor removes and returns the highest-priority job core c can
// host at cycle `start`, from its resume queue and the shared ready
// queue. Resumed jobs have already run, so they are always eligible; a
// fresh ready job is not schedulable before its lead's arrival (batch
// admission during a slice can put not-yet-arrived jobs in the queue).
func (s *Scheduler) pickFor(c *coreState, start sim.Cycle) (*job, bool) {
	bestRi, bestQi := -1, -1
	for i, j := range c.resume {
		if bestRi < 0 || jobLess(j, c.resume[bestRi]) {
			bestRi = i
		}
	}
	for i, j := range s.ready {
		if j.arrival > start || !s.canHost(c, j) {
			continue
		}
		if bestQi < 0 || jobLess(j, s.ready[bestQi]) {
			bestQi = i
		}
	}
	switch {
	case bestRi < 0 && bestQi < 0:
		return nil, false
	case bestRi >= 0 && (bestQi < 0 || !jobLess(s.ready[bestQi], c.resume[bestRi])):
		j := c.resume[bestRi]
		c.resume = append(c.resume[:bestRi], c.resume[bestRi+1:]...)
		return j, true
	default:
		j := s.ready[bestQi]
		s.ready = append(s.ready[:bestQi], s.ready[bestQi+1:]...)
		return j, false
	}
}

// startJob loads/maps the job on core c and leaves it as c.cur; the
// main loop's advance() runs its slices.
func (s *Scheduler) startJob(c *coreState, j *job, start sim.Cycle, resumed bool) {
	m := j.cur()
	if j.secure {
		rep := s.deps.Monitor.Dispatch(monitor.Call{
			Func: monitor.FnLoad,
			Args: []uint64{uint64(j.monID), 0, uint64(s.deps.Cfg.SpadLines()), uint64(c.id)},
		})
		if rep.Err != nil {
			// Load of a verified task on a healthy core should not fail;
			// fail the whole job closed if it does.
			s.abortJob(c, j, start, false)
			return
		}
		if j.loadCost > 0 {
			start += j.loadCost
			j.loadCost = 0
		}
		if resumed {
			// Restore the checkpointed accumulator context that the
			// mandatory preemption flush saved.
			start += s.flushLive(m)
		}
		if spec := j.decode(); spec != nil && j.kvLines == 0 {
			// First placement of a decode batch: claim a resident KV
			// window from the monitor's scratchpad partition. The claim
			// streams the (zeroed) backing store through once — the cost
			// model is the same DMA walk a flush pays.
			lineBytes := s.deps.Cfg.SpadLineBytes
			lines := int((spec.KVBytes() + int64(lineBytes) - 1) / int64(lineBytes))
			if maxL := s.deps.Cfg.KVSpadLines() / 4; lines > maxL {
				lines = maxL
			}
			if lines < 1 {
				lines = 1
			}
			rep := s.deps.Monitor.Dispatch(monitor.Call{
				Func: monitor.FnKVAlloc,
				Args: []uint64{uint64(j.monID), uint64(c.id), uint64(lines), uint64(spec.KVBytes())},
			})
			if rep.Err != nil {
				s.abortJob(c, j, start, false)
				return
			}
			j.kvLines = lines
			start += s.flush(uint64(lines * lineBytes))
			s.decide(start, c.id, "kv_alloc", m, fmt.Sprintf("lines=%d domain=%d", lines, rep.Value))
		}
	} else if s.deps.Monitor != nil && !j.mapped {
		if j.slot == 0 {
			j.slot = s.freeSlot(c)
			if j.slot < 0 {
				// canHost filtered this; defensive re-queue.
				s.ready = append(s.ready, j)
				return
			}
			c.slots[j.slot] = true
		}
		lo, hi := m.curProg().VASpan()
		vbase := mem.VirtAddr(mem.PageAlignDown(mem.PhysAddr(lo)))
		size := uint64(mem.PageAlignUp(mem.PhysAddr(hi)) - mem.PhysAddr(vbase))
		rep := s.deps.Monitor.Dispatch(monitor.Call{
			Func: monitor.FnMapNonSecure,
			Args: []uint64{uint64(c.id), uint64(j.slot), uint64(vbase), uint64(m.task.Chunk), size},
		})
		if rep.Err != nil {
			s.abortJob(c, j, start, false)
			return
		}
		j.mapped = true
	}
	j.coreID = c.id
	c.cur = j
	c.freeAt = start
	ev := "dispatch"
	if resumed {
		ev = "resume"
	}
	s.obsDispatch.Inc()
	s.decide(start, c.id, ev, m, fmt.Sprintf("prio=%d", j.prio))
}

// advance runs one tile slice of the current member's current pass on
// core c. The slice that completes a pass ends the member's turn (for
// a decode member, one token out); the member retires after its last
// pass. Mid-pass, a slice ends in a fault, a deadline cut, or a
// boundary preemption check.
func (s *Scheduler) advance(c *coreState) {
	j := c.cur
	m := j.cur()
	if m.ex == nil {
		m.ex = npu.NewExec(c.core, m.curProg(), m.req.ID+10000)
		if !m.started {
			m.started = true
			m.start = c.freeAt
		}
		m.core = c.id
		if m.checkpoint > 0 {
			// Retried member: restart the interrupted pass from its last
			// completed layer boundary and pay the checkpoint-restore
			// flush.
			m.ex.SkipToLayer(m.checkpoint)
			c.freeAt += s.flushLive(m)
		}
	}
	end, err := m.ex.RunUntil(c.freeAt, npu.BoundaryTile)
	if err != nil {
		var hang *npu.HangError
		if errors.As(err, &hang) {
			c.freeAt = hang.Detected
		}
		s.abortJob(c, j, c.freeAt, true)
		return
	}
	c.freeAt = end
	if cl := m.ex.CurrentLayer(); cl > m.checkpoint {
		m.checkpoint = cl // forward progress: a cheaper restart point
	}
	s.admitUpTo(end)

	if m.req.Deadline > 0 && end > m.req.Deadline {
		// Deterministic deadline-miss cut at the tile boundary — the
		// slice that crossed the deadline is the last one this member
		// gets, whether or not it happened to finish.
		s.cutDeadline(c, j, end)
		return
	}

	if m.ex.Done() {
		m.ex, m.checkpoint = nil, 0
		m.pass++
		if m.req.Decode != nil {
			m.tokenEnds = append(m.tokenEnds, end)
			s.decide(end, c.id, "token", m, fmt.Sprintf("tok=%d/%d", m.pass, len(m.progs)))
		}
		if m.pass == len(m.progs) {
			m.finish = end
			m.terminal, m.completed = true, true
			s.obsComplete.Inc()
			s.obsLatency.Observe(int64(end - m.req.Arrival))
			s.leave(c, m, end)
			s.decide(end, c.id, "complete", m, fmt.Sprintf("latency=%d", end-m.req.Arrival))
		}
		s.endTurn(c, j)
		return
	}

	// §IV-B boundary preemption: a strictly higher-priority placeable
	// job evicts the running one at the tile boundary.
	if s.preemptorWaiting(c, j.prio) {
		s.preempt(c, end)
	}
}

// cutDeadline cuts c's running member at the tile boundary that
// crossed its finish deadline. The cut is a policy decision, but its
// isolation consequence is not negotiable: a secure member's live
// accumulator state is flushed (§IV-B) before the core is reused. The
// job's remaining batch-mates keep the core (and a decode batch's
// shared KV window stays resident for them).
func (s *Scheduler) cutDeadline(c *coreState, j *job, at sim.Cycle) {
	m := j.cur()
	if j.secure {
		c.freeAt = at + s.flushLive(m)
	}
	m.terminal, m.dropped = true, true
	m.finish = at
	m.ex = nil
	m.errMsg = "sched: deadline missed"
	s.obsDeadlineMiss.Inc()
	s.decide(at, c.id, "deadline_miss", m, fmt.Sprintf("deadline=%d", m.req.Deadline))
	s.leave(c, m, at)
	s.endTurn(c, j)
}

// leave logs a retired decode member leaving its batch, which frees
// its seat for a joiner.
func (s *Scheduler) leave(c *coreState, m *reqState, at sim.Cycle) {
	if m.req.Decode != nil {
		s.decide(at, c.id, "leave", m, fmt.Sprintf("tokens=%d", m.pass))
	}
}

// endTurn ends the current member's turn at c.freeAt: the cursor moves
// to the next live member (members admitted mid-run become eligible
// here), a conventional batch drops the expired members now at the
// head of its line, and the job is torn down once no member is owed
// work.
func (s *Scheduler) endTurn(c *coreState, j *job) {
	j.rotate()
	if j.decode() == nil {
		s.dropExpiredHead(c, j, c.freeAt)
	}
	if j.done() {
		s.teardownJob(c, j, c.freeAt, monitor.FnUnload)
	}
}

// dropExpiredHead drops members at the head of j's line that can no
// longer meet their deadline when started at `at`.
func (s *Scheduler) dropExpiredHead(c *coreState, j *job, at sim.Cycle) {
	for !j.done() && s.deadlineExpired(j.cur(), at) {
		s.drop(j.cur(), at, c.id)
		j.rotate()
	}
}

// flush charges one §IV-B scratchpad walk of `bytes` (save, restore or
// scrub) to the episode and returns its cycle cost.
func (s *Scheduler) flush(bytes uint64) sim.Cycle {
	cost := spad.FlushCost(bytes, s.deps.Cfg.DRAMBytesPerCycle, s.deps.Cfg.DRAMLatency, s.deps.Stats)
	s.flushCycles += cost
	return cost
}

// flushLive charges the flush of m's live accumulator context for its
// current pass.
func (s *Scheduler) flushLive(m *reqState) sim.Cycle {
	return s.flush(npu.FlushLiveBytes(m.curProg()))
}

// preemptorWaiting reports a strictly higher-priority job core c could
// host right now.
func (s *Scheduler) preemptorWaiting(c *coreState, prio Priority) bool {
	for _, o := range c.resume {
		if o.prio > prio {
			return true
		}
	}
	for _, o := range s.ready {
		if o.prio > prio && s.canHost(c, o) {
			return true
		}
	}
	return false
}

// preempt evicts c's current job at a tile boundary. Secure victims
// pay the mandatory flush (monitor scrub + ID-bit reassignment + the
// context save on the critical path); non-secure victims cost nothing
// — their lines stay behind the ID check, which is exactly sNPU's
// Fig. 14 argument.
func (s *Scheduler) preempt(c *coreState, at sim.Cycle) {
	j := c.cur
	m := j.cur()
	m.preempts++
	s.obsPreempt.Inc()
	s.deps.Stats.IncID(sim.IDCtxSwitches)
	if j.secure {
		rep := s.deps.Monitor.Dispatch(monitor.Call{Func: monitor.FnPreempt, Args: []uint64{uint64(j.monID)}})
		if rep.Err != nil {
			s.abortJob(c, j, at, false)
			return
		}
		c.freeAt = at + s.flushLive(m)
		s.invalidateWindows(c)
	}
	s.decide(at, c.id, "preempt", m, fmt.Sprintf("prio=%d", j.prio))
	c.resume = append(c.resume, j)
	c.cur = nil
}

// invalidateWindows records that the monitor's ClearTask wiped every
// translation register on c: resident non-secure jobs must remap
// before their next slice.
func (s *Scheduler) invalidateWindows(c *coreState) {
	for _, o := range c.resume {
		if !o.secure {
			o.mapped = false
		}
	}
}

// teardownJob releases j's residency on c, once, whether the job ran
// out of members (fn = FnUnload) or failed closed (fn = FnAbort, sent
// only while the monitor still holds the task). A secure job's resident
// KV window is scrubbed with its task (§IV-B flush contract): the
// monitor call does the actual ResetSecure+zero, this pays the
// streaming cost of walking it. Non-secure members release their DMA
// chunk and translation-window slot.
func (s *Scheduler) teardownJob(c *coreState, j *job, at sim.Cycle, fn monitor.FuncID) {
	if j.secure {
		s.closeBatch(j)
		if j.kvLines > 0 {
			c.freeAt = at + s.flush(uint64(j.kvLines*s.deps.Cfg.SpadLineBytes))
			s.decide(at, c.id, "kv_scrub", j.lead(), fmt.Sprintf("lines=%d", j.kvLines))
			j.kvLines = 0
		}
		call := monitor.Call{Func: fn, Args: []uint64{uint64(j.monID)}}
		if fn == monitor.FnAbort {
			if _, err := s.deps.Monitor.Task(j.monID); err == nil {
				_ = s.deps.Monitor.Dispatch(call)
				s.invalidateWindows(c)
			}
		} else if s.deps.Monitor.Dispatch(call).Err == nil {
			s.invalidateWindows(c)
		}
	} else {
		for _, m := range j.members {
			if m.task != nil {
				_ = s.deps.Driver.Release(m.task)
				m.task = nil
			}
		}
		if j.slot > 0 {
			c.slots[j.slot] = false
			j.slot = 0
		}
	}
	s.memFreed = true
	if c.cur == j {
		c.cur = nil
	}
}

// abortMember retires one member with the opaque sentinel. Retryable
// records the failure class (fault vs isolation) for the serve layer's
// status mapping; the error string is identical either way.
func (s *Scheduler) abortMember(m *reqState, at sim.Cycle, core int, retryable bool) {
	m.terminal, m.aborted = true, true
	m.retryable = retryable
	m.finish = at
	m.errMsg = ErrTaskAborted.Error()
	s.obsAbort.Inc()
	s.decide(at, core, "abort", m, "")
}

// abortJob is the fail-closed path: the job's residency is torn down
// (scratchpads scrubbed, the monitor's task destroyed) and every
// unfinished member surfaces only the opaque ErrTaskAborted — whatever
// went wrong is never surfaced to the untrusted side. A monitor-call
// failure (fault = false) is terminal: a task the monitor refused is
// not coming back. After an execution fault (hang, unrecovered data
// error) policy decides what happens next: secure members with restart
// budget left re-enter the queue after an exponential backoff and
// restart from their last completed layer checkpoint through a fresh
// FnSubmit; everyone else is abandoned, marked Retryable when secure so
// clients know a resubmission is worthwhile.
func (s *Scheduler) abortJob(c *coreState, j *job, at sim.Cycle, fault bool) {
	s.teardownJob(c, j, at, monitor.FnAbort)
	retryable := fault && j.secure
	retry := retryable && s.cfg.MaxRestarts > 0
	for _, m := range j.members {
		if m.terminal {
			continue
		}
		m.ex = nil
		if !retry || m.attempts >= s.cfg.MaxRestarts {
			s.abortMember(m, at, c.id, retryable)
			continue
		}
		m.attempts++
		retryAt := at + RetryBackoff(s.cfg.RetryBackoff, m.attempts)
		if m.req.Deadline > 0 && retryAt >= m.req.Deadline {
			// The backoff alone blows the deadline: retrying is futile.
			s.abortMember(m, at, c.id, true)
			continue
		}
		m.retryAt = retryAt
		s.retryQ = append(s.retryQ, m)
		s.obsRetry.Inc()
		s.decide(at, c.id, "retry", m,
			fmt.Sprintf("attempt=%d backoff-until=%d checkpoint=%d", m.attempts, retryAt, m.checkpoint))
	}
	sort.SliceStable(s.retryQ, func(a, b int) bool {
		x, y := s.retryQ[a], s.retryQ[b]
		if x.retryAt != y.retryAt {
			return x.retryAt < y.retryAt
		}
		return x.req.ID < y.req.ID
	})
}

func (s *Scheduler) drop(m *reqState, at sim.Cycle, core int) {
	m.terminal, m.dropped = true, true
	m.finish = at
	m.errMsg = "sched: deadline missed"
	s.obsDeadlineMiss.Inc()
	s.decide(at, core, "drop", m, fmt.Sprintf("deadline=%d", m.req.Deadline))
}

func (s *Scheduler) reject(rs *reqState, at sim.Cycle, msg string) {
	rs.terminal, rs.rejected = true, true
	rs.errMsg = msg
	s.obsReject.Inc()
	s.decide(at, -1, "reject", rs, msg)
}

// rejectStranded fails every leftover request when no placement can
// ever succeed (e.g. a secure model larger than secure memory with
// nothing left to free).
func (s *Scheduler) rejectStranded(at sim.Cycle) {
	for _, rs := range s.waitlist {
		s.reject(rs, at, "no capacity")
	}
	s.waitlist = nil
	for _, rs := range s.retryQ {
		s.reject(rs, at, "no capacity")
	}
	s.retryQ = nil
	for _, j := range s.ready {
		if j.secure {
			s.closeBatch(j)
			_ = s.deps.Monitor.Dispatch(monitor.Call{Func: monitor.FnUnload, Args: []uint64{uint64(j.monID)}})
		}
		for _, m := range j.members {
			if !m.terminal {
				s.reject(m, at, "no capacity")
			}
		}
	}
	s.ready = nil
}

func (s *Scheduler) decide(at sim.Cycle, core int, ev string, rs *reqState, detail string) {
	d := Decision{
		Cycle: at, Core: core, Event: ev,
		Req: rs.req.ID, Tenant: rs.req.Tenant, Model: rs.req.Model, Detail: detail,
	}
	s.decisions = append(s.decisions, d)
	if s.cfg.OnDecision != nil {
		s.cfg.OnDecision(d)
	}
}

func (s *Scheduler) assemble() *Report {
	rep := &Report{FlushCycles: s.flushCycles}
	ordered := append([]*reqState(nil), s.all...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].req.ID < ordered[j].req.ID })
	for _, rs := range ordered {
		r := Result{
			ID: rs.req.ID, Tenant: rs.req.Tenant, Model: rs.req.Model,
			Secure: rs.req.Secure, Arrival: rs.req.Arrival,
			Start: rs.start, Finish: rs.finish, Core: rs.core,
			Preemptions: rs.preempts, Batched: rs.batched,
			Retries: rs.attempts, Retryable: rs.retryable,
			Completed: rs.completed, Dropped: rs.dropped,
			Aborted: rs.aborted, Rejected: rs.rejected,
			Shed: rs.shed, Err: rs.errMsg,
			Tokens: len(rs.tokenEnds),
		}
		rep.Results = append(rep.Results, r)
		if len(rs.tokenEnds) > 0 {
			if rep.TokenTimes == nil {
				rep.TokenTimes = make(map[int][]sim.Cycle)
			}
			rep.TokenTimes[rs.req.ID] = append([]sim.Cycle(nil), rs.tokenEnds...)
			rep.Tokens += len(rs.tokenEnds)
		}
		rep.Preemptions += rs.preempts
		rep.Retries += rs.attempts
		switch {
		case rs.completed:
			rep.Completed++
			if rs.batched {
				rep.BatchedRuns++
			}
			if rs.attempts > 0 {
				rep.Recovered++
			}
			if rs.finish > rep.Makespan {
				rep.Makespan = rs.finish
			}
		case rs.dropped:
			rep.Dropped++
		case rs.aborted:
			rep.Aborted++
		case rs.shed:
			rep.Shed++
		case rs.rejected:
			rep.Rejected++
		}
		// Feed the circuit breaker in result order — deterministic, and
		// quarantine decisions land in this episode's log.
		if s.cfg.Breaker.observe(rs.req.Tenant, rs.aborted, rs.completed) {
			s.decide(rs.finish, -1, "quarantine", rs,
				fmt.Sprintf("cooldown=%d episodes", s.cfg.Breaker.cooldown()))
		}
	}
	s.cfg.Breaker.endEpisode()
	rep.Decisions = s.decisions
	return rep
}
