// Package fault is the deterministic fault-injection subsystem of the
// simulated SoC (beyond the paper; it stresses the §IV recovery
// mechanisms the evaluation only exercises on the happy path). A Plan schedules hardware faults — DRAM word bit
// flips, NoC flit corruption/drops, permanent link failures, DMA
// request stalls, IOTLB entry corruption, scratchpad bit flips, and
// core hangs — at simulated cycles against named sites. Components
// pull matching events from an Injector at access time, so a fault
// scheduled for cycle C fires at the first access of its site at or
// after C, which is deterministic for a deterministic access stream.
//
// Two invariants anchor the design:
//
//  1. Zero overhead when off: a nil Injector (or one with an empty
//     plan) is a handful of predictable branches; no timing, counter,
//     or functional state changes.
//  2. Fault-safety is security-safety: no injected fault may ever turn
//     into an isolation break. Detection either recovers (ECC
//     correction, CRC retry, parity re-walk) or fails closed (task
//     abort + scrub) — never open.
//
// Nothing in the injection path reads the wall clock or the global
// math/rand state: randomness enters only through Plan generation from
// an explicit seed, so the same seed always yields byte-identical
// fault sequences.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind names one fault site/failure mode pair.
type Kind uint8

const (
	// DRAMBitFlip flips one bit of a DRAM word (SECDED ECC territory).
	DRAMBitFlip Kind = iota
	// NoCCorrupt corrupts one flit of a NoC packet in flight (CRC
	// detects; without CRC the payload is silently damaged).
	NoCCorrupt
	// NoCDrop drops a NoC packet (NACK timeout + retransmit).
	NoCDrop
	// NoCLinkDown permanently kills one mesh link (reroute or fail
	// closed).
	NoCLinkDown
	// DMAStall stalls a DMA request until the engine's watchdog fires
	// (timeout + bounded retry with capped backoff).
	DMAStall
	// IOTLBCorrupt flips a bit in a cached IOTLB translation (parity
	// detects; flush + re-walk recovers).
	IOTLBCorrupt
	// SpadBitFlip flips one bit of a scratchpad wordline (per-line
	// parity detects; the access fails closed).
	SpadBitFlip
	// CoreHang wedges a core mid-op until the engine watchdog expires
	// (the NPU Monitor aborts or restarts the task).
	CoreHang

	numKinds
)

var kindNames = [numKinds]string{
	DRAMBitFlip:  "dram-bit-flip",
	NoCCorrupt:   "noc-corrupt",
	NoCDrop:      "noc-drop",
	NoCLinkDown:  "noc-link-down",
	DMAStall:     "dma-stall",
	IOTLBCorrupt: "iotlb-corrupt",
	SpadBitFlip:  "spad-bit-flip",
	CoreHang:     "core-hang",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// injectedID is the kind's fault.injected.<kind> counter; sim lists
// those IDs in Kind order.
func injectedID(k Kind) sim.CounterID { return sim.IDFaultInjectedDRAMBitFlip + sim.CounterID(k) }

// KindFromString parses the JSON plan spelling of a kind.
func KindFromString(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// Kinds lists every fault kind in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Event is one scheduled fault. It fires at the first access of its
// site at or after cycle At.
type Event struct {
	// At is the earliest simulated cycle the fault may fire.
	At sim.Cycle
	// Kind selects the site and failure mode.
	Kind Kind
	// Sel deterministically selects the target within the site (a DRAM
	// word within the request, a scratchpad line, a mesh link, an
	// IOTLB way); the site reduces it modulo its population.
	Sel uint64
	// Bit selects which bit to flip, for the corruption kinds.
	Bit uint8
}

// Pick reduces the event's selector onto a population of n targets.
func (e Event) Pick(n int) int {
	if n <= 0 {
		return 0
	}
	return int(e.Sel % uint64(n))
}

// Injector hands scheduled faults to the hardware models. A nil
// Injector is valid and always empty, so components hold a plain field
// and the no-fault fast path costs one nil check.
//
// The injector tracks a high-water "last observed cycle" fed by every
// Take call; untimed call sites (functional scratchpad accesses) use
// TakeAt, which fires against that clock. The simulator is
// single-threaded, so this is deterministic.
type Injector struct {
	queues    [numKinds][]Event // each sorted ascending by At
	remaining int
	injected  int64
	now       sim.Cycle
	stats     *sim.Stats
	// Observability: span sink, nil unless AttachTrace was called. The
	// injector takes the resolved recorder rather than an obs.Observer
	// so the fault package stays below obs in the import graph
	// (obs-instrumented components like the NoC import fault). Fired
	// counts already flow to exports through the stats sink
	// (fault.injected and its per-kind variants).
	obsRec *trace.Recorder
}

// AttachTrace wires the injector into a span timeline: every fired
// event lands as a fault-kind span from its scheduled cycle to the
// cycle it actually hit a site. Safe on nil; a nil recorder detaches.
func (i *Injector) AttachTrace(rec *trace.Recorder) {
	if i != nil {
		i.obsRec = rec
	}
}

// NewInjector arms an injector with a plan. Events are stably sorted
// by cycle per kind; the original Plan is not modified.
func NewInjector(p Plan, stats *sim.Stats) *Injector {
	inj := &Injector{stats: stats}
	for _, ev := range p.Events {
		if ev.Kind >= numKinds {
			continue
		}
		inj.queues[ev.Kind] = append(inj.queues[ev.Kind], ev)
		inj.remaining++
	}
	for k := range inj.queues {
		q := inj.queues[k]
		sort.SliceStable(q, func(i, j int) bool { return q[i].At < q[j].At })
	}
	return inj
}

// Enabled reports whether any fault is still pending. Safe on nil.
func (i *Injector) Enabled() bool { return i != nil && i.remaining > 0 }

// Remaining reports pending (not yet fired) events. Safe on nil.
func (i *Injector) Remaining() int {
	if i == nil {
		return 0
	}
	return i.remaining
}

// Injected reports how many faults have fired. Safe on nil.
func (i *Injector) Injected() int64 {
	if i == nil {
		return 0
	}
	return i.injected
}

// Observe advances the injector's notion of current cycle without
// taking an event (timed components call it as their clock moves so
// untimed sites fire at sensible points). Safe on nil.
func (i *Injector) Observe(now sim.Cycle) {
	if i != nil && now > i.now {
		i.now = now
	}
}

// Take pops the oldest pending event of the kind whose schedule cycle
// has been reached at `now`. Safe on nil.
func (i *Injector) Take(k Kind, now sim.Cycle) (Event, bool) {
	if i == nil || k >= numKinds {
		return Event{}, false
	}
	if now > i.now {
		i.now = now
	}
	q := i.queues[k]
	if len(q) == 0 || q[0].At > now {
		return Event{}, false
	}
	ev := q[0]
	i.queues[k] = q[1:]
	i.remaining--
	i.injected++
	i.stats.IncID(sim.IDFaultsInjected)
	i.stats.IncID(injectedID(k))
	if i.obsRec != nil {
		// Span from the scheduled cycle to the access that absorbed it —
		// the injection-to-landing latency of the pull model.
		i.obsRec.Record(trace.Event{
			Name: "fault." + k.String(), Kind: trace.KindFault,
			Start: ev.At, End: now,
		})
	}
	return ev, true
}

// TakeAt is Take against the injector's last observed cycle, for call
// sites that carry no timestamp of their own. Safe on nil.
func (i *Injector) TakeAt(k Kind) (Event, bool) {
	if i == nil {
		return Event{}, false
	}
	return i.Take(k, i.now)
}
