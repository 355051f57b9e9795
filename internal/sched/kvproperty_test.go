package sched_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	snpu "repro"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/workload"
)

// The KV-isolation property suite: randomized decode schedules (tenant
// mixes x specs x priorities x chaos plans) against the resident-KV
// extension of the §IV-B invariants. Every schedule plants a
// tenant-unique sentinel into each KV window the monitor allocates and
// asserts, at every scheduling decision (dispatch, token, join, leave,
// preempt, fault-abort, retry, scrub):
//
//  1. Exclusivity: the sentinel is readable only with the window's own
//     ID-bit domain — never from the normal world, never from the
//     transient SecureDomain, never with any other live window's domain.
//  2. Residency: a live window's sentinel survives tile-boundary
//     preemption and every context switch untouched (the scheduler's
//     scrub walks around it).
//  3. Flush contract: the moment a window leaves the monitor's live set
//     (FnUnload/FnAbort), no read in any domain can recover the
//     sentinel from its lines.
//  4. Geometry: live windows stay inside the KV partition and never
//     overlap or share a domain on one core.
const kvPropertySchedules = 200

func TestKVIsolationRandomSchedules(t *testing.T) {
	n := kvPropertySchedules
	if testing.Short() {
		n = 40
	}
	hashes := trackScheduleHashes(t)
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("schedule-%03d", i), func(t *testing.T) {
			t.Parallel()
			hashes.record(t, runKVPropertySchedule(t, seed))
		})
	}
}

func runKVPropertySchedule(t *testing.T, seed int64) *sched.Report {
	rng := rand.New(rand.NewSource(seed))
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A quarter of the schedules run under a seeded chaos plan so KV
	// windows die through the fail-closed abort path, not only the
	// orderly unload.
	if seed%4 == 0 {
		sys.InstallFaultPlan(fault.Generate(seed, 40_000_000, fault.UniformRates(6)))
	}

	cores := []int{0}
	if rng.Intn(2) == 1 {
		cores = []int{0, 1}
	}
	probe := &kvProbe{t: t, sys: sys, seed: seed, planted: map[string]*kvPlant{}}
	cfg := sched.Config{
		Cores:      cores,
		MaxBatch:   2 + rng.Intn(3),
		OnDecision: probe.onDecision,
	}
	if rng.Intn(2) == 0 {
		cfg.MaxRestarts = 1 + rng.Intn(2)
	}
	sc, err := sys.NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Each tenant decodes its own spec (distinct prompt length), so two
	// tenants never share a batch, a task, or a KV window.
	nTenants := 2 + rng.Intn(2)
	specs := make([]workload.DecodeSpec, nTenants)
	for ti := range specs {
		specs[ti] = workload.DecodeSpec{
			Layers: 1, Hidden: 64, Heads: 4, FFN: 128,
			Prompt: 4 + 4*ti, Steps: 2 + rng.Intn(4),
		}
	}

	nReq := 3 + rng.Intn(5)
	id := 0
	expected := map[int]int{} // decode req -> expected token count
	for i := 0; i < nReq; i++ {
		ti := rng.Intn(nTenants)
		id++
		spec := specs[ti]
		r := sched.Request{
			ID: id, Tenant: fmt.Sprintf("tenant-%d", ti), Secure: true,
			Decode:   &spec,
			Arrival:  sim.Cycle(rng.Intn(300_000)),
			Priority: sched.Priority(rng.Intn(3) * 5),
		}
		expected[id] = spec.Steps + 1
		if err := sc.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	// A couple of plain secure requests force context switches and
	// priority preemptions against resident KV windows.
	sealed := sealFor(t, sys, "kv-prop-key", byte(seed))
	for i := 0; i < 1+rng.Intn(2); i++ {
		id++
		if err := sc.Submit(sched.Request{
			ID: id, Tenant: "mixer", Model: "mobilenet", Secure: true,
			KeyID: "kv-prop-key", Sealed: sealed,
			Arrival:  sim.Cycle(rng.Intn(200_000)),
			Priority: sched.Priority(rng.Intn(3) * 5),
		}); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Scheduler sanity: completed decode requests emitted their full
	// token budget, and abort opacity held.
	for _, r := range rep.Results {
		if want, isDecode := expected[r.ID]; isDecode && r.Completed {
			if r.Tokens != want {
				t.Fatalf("req %d completed with %d tokens, want %d\n%s",
					r.ID, r.Tokens, want, rep.DecisionLog())
			}
		}
		if r.Aborted && r.Err != sched.ErrTaskAborted.Error() {
			t.Fatalf("req %d aborted with non-opaque error %q", r.ID, r.Err)
		}
	}

	// Invariant 3 at end-of-run: every KV window was torn down with its
	// task and no sentinel survives anywhere in any domain.
	if live := sys.Monitor().KVRegions(); len(live) != 0 {
		t.Fatalf("%d KV regions survive the episode: %+v\n%s", len(live), live, rep.DecisionLog())
	}
	probe.sweepDead("end-of-run")
	if len(probe.planted) != 0 {
		t.Fatalf("planted windows never verified dead: %v", probe.planted)
	}
	if probe.plants == 0 {
		t.Fatalf("schedule allocated no KV windows — property vacuous\n%s", rep.DecisionLog())
	}
	return rep
}

// kvPlant is one planted sentinel: the window it lives in and the
// bytes written there with the window's own domain.
type kvPlant struct {
	core, from, to int
	domain         spad.DomainID
	sentinel       []byte
}

// kvKey identifies one window instance. The task ID matters: first-fit
// happily re-issues a dead window's exact (core, from, domain) to the
// next task, and the probe must treat that as a fresh window.
func kvKey(r monitor.KVRegion) string { return fmt.Sprintf("%d:%d:%d", r.Task, r.Core, r.From) }

// kvProbe tracks every KV window the monitor creates, plants a unique
// sentinel into each, and replays the LeftoverLocals read against all
// of them on every scheduling decision.
type kvProbe struct {
	t       *testing.T
	sys     *snpu.System
	seed    int64
	planted map[string]*kvPlant
	plants  int
}

func (p *kvProbe) onDecision(d sched.Decision) {
	live := p.sys.Monitor().KVRegions()
	p.checkGeometry(live)

	liveKeys := map[string]bool{}
	for _, r := range live {
		liveKeys[kvKey(r)] = true
	}
	// Sweep dead windows first: their lines may already belong to a
	// fresh (zeroed, unplanted) window, and the flush contract must
	// hold before any new sentinel lands there.
	for key, pl := range p.planted {
		if liveKeys[key] {
			continue
		}
		p.verifyDead(pl, fmt.Sprintf("%s of req %d @%d", d.Event, d.Req, d.Cycle))
		delete(p.planted, key)
	}
	for _, r := range live {
		if _, ok := p.planted[kvKey(r)]; !ok {
			p.plant(r)
		}
	}
	// Probe every live window: the sentinel must be exclusive to its
	// own domain.
	for _, pl := range p.planted {
		p.probeLive(pl, live, d)
	}
}

// checkGeometry: live windows sit inside the KV partition and never
// overlap or share a domain on one core.
func (p *kvProbe) checkGeometry(live []monitor.KVRegion) {
	for i, a := range live {
		sp := p.spadOf(a.Core)
		total := sp.Lines()
		if a.From < total-total/4 || a.To > total || a.From >= a.To {
			p.t.Fatalf("KV window [%d,%d) outside partition [%d,%d)", a.From, a.To, total-total/4, total)
		}
		if a.Domain < 2 {
			p.t.Fatalf("KV window with reserved domain %d", a.Domain)
		}
		for _, b := range live[i+1:] {
			if a.Core != b.Core {
				continue
			}
			if a.Domain == b.Domain {
				p.t.Fatalf("two live KV windows share domain %d on core %d", a.Domain, a.Core)
			}
			if a.From < b.To && b.From < a.To {
				p.t.Fatalf("KV windows overlap on core %d: [%d,%d) vs [%d,%d)",
					a.Core, a.From, a.To, b.From, b.To)
			}
		}
	}
}

func (p *kvProbe) spadOf(coreID int) *spad.Scratchpad {
	core, err := p.sys.NPU().Core(coreID)
	if err != nil {
		p.t.Fatal(err)
	}
	return core.Scratchpad()
}

// plant writes a window-unique, position-dependent sentinel into the
// window's first line using the window's own ID-bit domain — exactly
// what the owning tenant's decode kernel would leave there.
func (p *kvProbe) plant(r monitor.KVRegion) {
	sp := p.spadOf(r.Core)
	buf := make([]byte, sp.LineBytes())
	for i := range buf {
		buf[i] = 0xC3 ^ byte(p.seed) ^ byte(r.Task*31) ^ byte(r.Core*13) ^ byte(r.From) ^ byte(i*29+7)
	}
	if err := sp.Write(r.Domain, r.From, buf); err != nil {
		p.t.Fatalf("planting KV sentinel on core %d line %d: %v", r.Core, r.From, err)
	}
	p.planted[kvKey(r)] = &kvPlant{
		core: r.Core, from: r.From, to: r.To, domain: r.Domain, sentinel: buf,
	}
	p.plants++
}

// probeLive asserts residency + exclusivity for one live window: its
// own domain still reads the sentinel; the normal world, the transient
// SecureDomain, and every other tenant's live KV domain are refused.
func (p *kvProbe) probeLive(pl *kvPlant, live []monitor.KVRegion, d sched.Decision) {
	sp := p.spadOf(pl.core)
	buf := make([]byte, sp.LineBytes())
	if err := sp.Read(pl.domain, pl.from, buf); err != nil {
		p.t.Fatalf("%s @%d: owner read of live KV window failed: %v", d.Event, d.Cycle, err)
	}
	if !bytes.Equal(buf, pl.sentinel) {
		p.t.Fatalf("%s @%d: live KV sentinel corrupted on core %d line %d", d.Event, d.Cycle, pl.core, pl.from)
	}
	foreign := []spad.DomainID{spad.NonSecure, spad.SecureDomain}
	for _, r := range live {
		if r.Core == pl.core && r.Domain != pl.domain {
			foreign = append(foreign, r.Domain)
		}
	}
	for _, dom := range foreign {
		if err := sp.Read(dom, pl.from, buf); !errors.Is(err, spad.ErrIsolation) {
			p.t.Fatalf("%s @%d: domain %d read live KV line %d on core %d (err=%v)",
				d.Event, d.Cycle, dom, pl.from, pl.core, err)
		}
	}
}

// verifyDead asserts the flush contract over a window that left the
// live set: no read — its old domain included — recovers the sentinel
// from any line it spanned.
func (p *kvProbe) verifyDead(pl *kvPlant, when string) {
	sp := p.spadOf(pl.core)
	buf := make([]byte, sp.LineBytes())
	for line := pl.from; line < pl.to; line++ {
		for _, dom := range []spad.DomainID{spad.NonSecure, pl.domain} {
			if err := sp.Read(dom, line, buf); err != nil {
				continue // retagged away from dom: unreadable is fine
			}
			if bytes.Contains(buf, pl.sentinel[:8]) {
				p.t.Fatalf("%s: sentinel survives scrub on core %d line %d (domain %d)",
					when, pl.core, line, dom)
			}
		}
	}
}

// sweepDead verifies every still-tracked window as dead (used after
// the run, when the live set is empty).
func (p *kvProbe) sweepDead(when string) {
	for key, pl := range p.planted {
		p.verifyDead(pl, when)
		delete(p.planted, key)
	}
}
