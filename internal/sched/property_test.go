package sched_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	snpu "repro"
	"repro/internal/fault"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/schedgen"
	"repro/internal/spad"
	"repro/internal/tee"
	"repro/internal/workload"
)

// The property suite: randomized schedules (tenants x models x
// priorities x preemption points x seeded chaos plans) against the
// §IV-B isolation invariants. Every schedule asserts:
//
//  1. LeftoverLocals: a secret planted in a secure task's scratchpad
//     lines while it runs is unreadable from the normal world after
//     every context switch (preempt, abort, end-of-run) — no
//     cross-domain bytes survive.
//  2. Attestation binds the task image: a report quoted for one
//     program never verifies against another's measurement.
//  3. Fail-closed opacity: aborted requests surface exactly
//     sched.ErrTaskAborted — no hang/fault detail leaks to the
//     untrusted side.
//
// plus scheduler sanity (every request reaches exactly one terminal
// state, completions have coherent cycle spans).

const propertySchedules = 200

// propModels aliases the shared generator's pool: the property suite
// and the campaign decoder must schedule the same models.
var propModels = schedgen.Models

// measOf caches one compile per model (the programs are pure functions
// of the model and config).
var (
	measMu sync.Mutex
	measBy = map[string][32]byte{}
)

func measOf(t *testing.T, model string) [32]byte {
	t.Helper()
	measMu.Lock()
	defer measMu.Unlock()
	if m, ok := measBy[model]; ok {
		return m
	}
	w, err := workload.Lookup(model)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := npu.Compile(w, snpu.DefaultConfig().NPU, 0, npu.DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Measurement()
	measBy[model] = m
	return m
}

func TestPropertyRandomSchedules(t *testing.T) {
	n := propertySchedules
	if testing.Short() {
		n = 40
	}
	hashes := trackScheduleHashes(t)
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("schedule-%03d", i), func(t *testing.T) {
			t.Parallel()
			hashes.record(t, runPropertySchedule(t, seed))
		})
	}
}

func runPropertySchedule(t *testing.T, seed int64) *sched.Report {
	rng := rand.New(rand.NewSource(seed))
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A quarter of the schedules run under a seeded chaos plan, so
	// preemptions and fail-closed aborts interleave with faults.
	if seed%4 == 0 {
		plan := fault.Generate(seed, 40_000_000, fault.UniformRates(6))
		sys.InstallFaultPlan(plan)
	}

	// All schedule randomness flows through the shared generator — the
	// same code path the campaign decoder drives with fuzz bytes.
	prof := schedgen.DefaultProfile()
	cores := schedgen.Cores(rng, prof)
	tenants := schedgen.Tenants(rng, prof)
	sealedBy, err := schedgen.ProvisionTenants(sys, seed, tenants, func(ti int) []byte {
		return []byte(fmt.Sprintf("prop model %d/%d", seed, ti))
	})
	if err != nil {
		t.Fatal(err)
	}

	// Position-dependent pattern: consecutive bytes always differ, so a
	// scrubbed (zeroed) line can never spuriously "contain" the secret.
	secret := make([]byte, 16)
	for i := range secret {
		secret[i] = 0xA5 ^ byte(seed) ^ byte(i*37+1)
	}
	plantLine := 3
	probe := newIsolationProbe(t, sys, cores, plantLine, secret)

	// Half the schedules run the resilience policy stack: fault
	// retries with backoff and bounded per-tenant queues. The planted
	// secret must stay unreadable across retry and shed transitions
	// exactly as across preempts and aborts.
	cfg := schedgen.Config(rng, cores)
	cfg.OnDecision = probe.onDecision
	sc, err := sys.NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}

	secureModels := map[string]bool{}
	for _, r := range schedgen.Requests(rng, prof, tenants, sealedBy) {
		if r.Secure {
			secureModels[r.Model] = true
		}
		if err := sc.Submit(r); err != nil && !errors.Is(err, sched.ErrQueueFull) {
			t.Fatal(err)
		}
	}

	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Scheduler sanity: one terminal state per request, coherent spans.
	for _, r := range rep.Results {
		states := 0
		for _, b := range []bool{r.Completed, r.Dropped, r.Aborted, r.Rejected, r.Shed} {
			if b {
				states++
			}
		}
		if states != 1 {
			t.Fatalf("req %d in %d terminal states: %+v", r.ID, states, r)
		}
		if r.Completed && (r.Finish <= r.Start || r.Start < r.Arrival) {
			t.Fatalf("req %d incoherent span: %+v", r.ID, r)
		}
		// Invariant 3: abort opacity. Whatever the monitor saw (hang,
		// fault, verification failure), the untrusted side learns only
		// the opaque sentinel.
		if r.Aborted {
			if r.Err != sched.ErrTaskAborted.Error() {
				t.Fatalf("req %d aborted with non-opaque error %q", r.ID, r.Err)
			}
		}
		if r.Err != "" {
			for _, leak := range []string{"hang", "watchdog", "cycle"} {
				if strings.Contains(r.Err, leak) {
					t.Fatalf("req %d error leaks hardware detail %q: %q", r.ID, leak, r.Err)
				}
			}
		}
	}

	// Invariant 1 at end-of-run: every core is back in the normal
	// world with zero secure bytes resident.
	probe.probeAll("end-of-run")

	// Invariant 2: attestation binds the image. A quote for one secure
	// model of this schedule never verifies as another model.
	models := make([]string, 0, len(secureModels))
	for m := range secureModels {
		models = append(models, m)
	}
	if len(models) >= 1 {
		nonce := uint64(seed)*2654435761 + 1
		measA := measOf(t, models[0])
		repA, err := sys.Machine().Attest(sys.Machine().SecureContext(), tee.Measurement(measA), nonce)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.VerifyAttestation(repA, measA, nonce); err != nil {
			t.Fatalf("attestation of the right image failed: %v", err)
		}
		other := propModels[0]
		if other == models[0] {
			other = propModels[1]
		}
		if err := sys.VerifyAttestation(repA, measOf(t, other), nonce); err == nil {
			t.Fatalf("report for %s verified as %s", models[0], other)
		}
		if err := sys.VerifyAttestation(repA, measA, nonce+1); err == nil {
			t.Fatal("report verified with a stale nonce")
		}
	}
	return rep
}

// isolationProbe plants a secret into the scratchpad of every secure
// task as it is dispatched and asserts, at every context switch the
// scheduler performs, that the secret is gone from the normal world's
// point of view — the LeftoverLocals attack replayed as an invariant.
type isolationProbe struct {
	t      *testing.T
	sys    *snpu.System
	cores  []int
	line   int
	secret []byte
}

func newIsolationProbe(t *testing.T, sys *snpu.System, cores []int, line int, secret []byte) *isolationProbe {
	return &isolationProbe{t: t, sys: sys, cores: cores, line: line, secret: secret}
}

func (p *isolationProbe) onDecision(d sched.Decision) {
	switch d.Event {
	case "dispatch", "resume":
		if d.Core >= 0 {
			p.plant(d)
		}
	case "preempt", "abort", "retry":
		// A retry decision fires after the fail-closed teardown, so it
		// is held to the identical no-leftover standard. (A
		// deadline_miss is not probed here: the batch's monitor task
		// legitimately stays resident for the remaining batch-mates and
		// is scrubbed at the job's unload.)
		if d.Core >= 0 {
			p.probeCore(d.Core, fmt.Sprintf("%s of req %d @%d", d.Event, d.Req, d.Cycle))
		}
	}
}

// plant writes the secret into a secure-domain scratchpad line while
// the secure task owns the core (the moment after FnLoad).
func (p *isolationProbe) plant(d sched.Decision) {
	core, err := p.sys.NPU().Core(d.Core)
	if err != nil {
		p.t.Fatal(err)
	}
	if core.Domain() != spad.SecureDomain {
		return // non-secure dispatch; nothing to plant
	}
	buf := make([]byte, core.Scratchpad().LineBytes())
	copy(buf, p.secret)
	if err := core.Scratchpad().Write(spad.SecureDomain, p.line, buf); err != nil {
		p.t.Fatalf("planting secret on core %d: %v", d.Core, err)
	}
}

// probeCore is the LeftoverLocals read: after a switch the normal
// world must see no secure lines, a non-secure core domain, and no
// secret bytes through a normal-world read.
func (p *isolationProbe) probeCore(coreID int, when string) {
	core, err := p.sys.NPU().Core(coreID)
	if err != nil {
		p.t.Fatal(err)
	}
	if n := core.Scratchpad().CountDomain(spad.SecureDomain); n != 0 {
		p.t.Fatalf("%s: core %d kept %d secure scratchpad lines", when, coreID, n)
	}
	if n := core.Accumulator().CountDomain(spad.SecureDomain); n != 0 {
		p.t.Fatalf("%s: core %d kept %d secure accumulator lines", when, coreID, n)
	}
	if core.Domain() != spad.NonSecure {
		p.t.Fatalf("%s: core %d still in domain %d", when, coreID, core.Domain())
	}
	buf := make([]byte, core.Scratchpad().LineBytes())
	if err := core.Scratchpad().Read(spad.NonSecure, p.line, buf); err == nil {
		if bytes.Contains(buf, p.secret) {
			p.t.Fatalf("%s: secret readable from the normal world on core %d", when, coreID)
		}
	}
}

func (p *isolationProbe) probeAll(when string) {
	for _, ci := range p.cores {
		p.probeCore(ci, when)
	}
}

// Regression corpus: the minimized schedule that exposed the PR-4
// admit-early bug, where an idle core started a request before its
// arrival cycle. Two idle cores, one immediate request, one arriving
// far in the future — nothing may dispatch (or be admitted) before
// its own arrival, and the property holds for every decision class.
// The serve fuzz corpus seeds the same shape through the HTTP layer.
func TestRegressionAdmitEarlySchedule(t *testing.T) {
	_, sc := bootSched(t, sched.Config{Cores: []int{0, 1}})
	reqs := []sched.Request{
		{ID: 1, Tenant: "a", Model: "mobilenet", Arrival: 0},
		{ID: 2, Tenant: "b", Model: "mobilenet", Arrival: 30_000_000},
	}
	for _, r := range reqs {
		if err := sc.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Completed && r.Start < r.Arrival {
			t.Fatalf("req %d started at %d before its arrival %d\n%s",
				r.ID, r.Start, r.Arrival, rep.DecisionLog())
		}
	}
	for _, d := range rep.Decisions {
		if d.Req == 2 && d.Cycle < 30_000_000 {
			t.Fatalf("decision %q for req 2 at cycle %d, before its arrival\n%s",
				d.Event, d.Cycle, rep.DecisionLog())
		}
	}
	if rep.Completed != 2 {
		t.Fatalf("completed=%d, want 2\n%s", rep.Completed, rep.DecisionLog())
	}
}

// A guaranteed hang: one core, one secure request, a CoreHang event
// early in its run. The scheduler must abort fail-closed, scrub the
// core, and surface only the opaque sentinel.
func TestScheduledHangAbortsOpaquely(t *testing.T) {
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallFaultPlan(fault.Plan{Events: []fault.Event{
		{At: 1000, Kind: fault.CoreHang, Sel: 0},
	}})
	key := snpu.ChaosKey(99)
	if err := sys.ProvisionKey("k", key); err != nil {
		t.Fatal(err)
	}
	sealed, err := snpu.SealModel(key, []byte("hang model"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sys.NewScheduler(sched.Config{Cores: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Submit(sched.Request{
		ID: 1, Tenant: "a", Model: "mobilenet", Secure: true, KeyID: "k", Sealed: sealed,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := rep.ResultByID(1)
	if !r.Aborted {
		t.Fatalf("request survived a scheduled core hang: %+v\n%s", r, rep.DecisionLog())
	}
	if r.Err != sched.ErrTaskAborted.Error() {
		t.Fatalf("abort error not opaque: %q", r.Err)
	}
	core, err := sys.NPU().Core(0)
	if err != nil {
		t.Fatal(err)
	}
	if core.Domain() != spad.NonSecure {
		t.Fatal("hang abort left the core in the secure domain")
	}
	if n := core.Scratchpad().CountDomain(spad.SecureDomain); n != 0 {
		t.Fatalf("hang abort left %d secure lines", n)
	}
	if sys.Monitor().QueueLen() != 0 {
		t.Fatal("aborted task still queued in the monitor")
	}
}
