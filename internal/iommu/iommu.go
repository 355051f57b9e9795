package iommu

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xlate"
)

// Config holds the IOMMU timing and size parameters.
type Config struct {
	// IOTLBEntries is the fully-associative TLB size (paper: 4..32).
	IOTLBEntries int
	// WalkCyclesPerAccess is the latency of one page-walker memory
	// access. Walkers hit DRAM (or a partially-effective walk cache);
	// the default assumes upper levels usually hit the walk cache so
	// the average access is cheaper than raw DRAM latency.
	WalkCyclesPerAccess sim.Cycle
	// FlushOnContextSwitch models the sMMU invalidating the IOTLB when
	// the NPU is handed to a different task/world (ping-pong).
	FlushOnContextSwitch bool
	// TagWithASID gives IOTLB entries an address-space tag so multiple
	// streams coexist without flushing (modern sMMU stream IDs);
	// capacity contention between the streams remains.
	TagWithASID bool
	// NoParity disables IOTLB entry parity. Parity is on by default:
	// it is timing-invisible until an entry is actually corrupted, and
	// without it a flipped PPN silently misdirects DMA.
	NoParity bool
}

// DefaultConfig mirrors the paper's TrustZone-NPU setup.
func DefaultConfig(entries int) Config {
	return Config{
		IOTLBEntries:         entries,
		WalkCyclesPerAccess:  80,
		FlushOnContextSwitch: true,
	}
}

// IOMMU implements xlate.Translator with page-granular translation:
// one IOTLB lookup per 64-byte memory packet (the energy/count model of
// Fig. 13(b)), one potential page walk per newly-touched page (the
// stall model of Fig. 13(a)), and a full flush on context switch.
type IOMMU struct {
	cfg     Config
	table   *PageTable
	tlb     *IOTLB
	stats   *sim.Stats
	inj     *fault.Injector
	curTask int

	// Observability: pre-resolved instruments, nil unless AttachObserver
	// was called.
	obsWalk *obs.Histogram
	obsRec  *trace.Recorder
}

// New builds an IOMMU over its IO page table.
func New(cfg Config, stats *sim.Stats) *IOMMU {
	u := &IOMMU{
		cfg:     cfg,
		table:   NewPageTable(),
		tlb:     NewIOTLB(cfg.IOTLBEntries),
		stats:   stats,
		curTask: -1,
	}
	u.tlb.stats = stats
	if !cfg.NoParity {
		u.tlb.EnableParity()
	}
	return u
}

// AttachInjector points the IOMMU at a fault injector; IOTLB
// corruption events land on the next translation at/after their cycle.
func (u *IOMMU) AttachInjector(inj *fault.Injector) { u.inj = inj }

// AttachObserver wires the IOMMU into an observability layer: an
// iotlb.walk.cycles histogram of per-translation walk stall plus a
// span per translation that actually walked. Nil detaches.
func (u *IOMMU) AttachObserver(o *obs.Observer) {
	if o == nil {
		u.obsWalk, u.obsRec = nil, nil
		return
	}
	u.obsWalk = o.Registry().Histogram("iotlb.walk.cycles", obs.DefaultCycleBuckets())
	u.obsRec = o.Trace()
}

// Table exposes the IO page table so the (untrusted) driver can map
// DMA buffers, and the TEE path can install secure mappings.
func (u *IOMMU) Table() *PageTable { return u.table }

// TLB exposes the IOTLB for inspection in tests and experiments.
func (u *IOMMU) TLB() *IOTLB { return u.tlb }

// Name implements xlate.Translator.
func (u *IOMMU) Name() string {
	return fmt.Sprintf("iotlb-%d", u.cfg.IOTLBEntries)
}

// OnContextSwitch implements xlate.Translator: switching the NPU to a
// different address space invalidates the IOTLB.
func (u *IOMMU) OnContextSwitch(taskID int) {
	if taskID == u.curTask {
		return
	}
	first := u.curTask == -1
	u.curTask = taskID
	if u.cfg.FlushOnContextSwitch && !first {
		u.tlb.FlushAll()
		u.stats.IncID(sim.IDIOTLBFlushes)
	}
}

// Translate implements xlate.Translator. The request must be mapped
// with sufficient permission on every page it touches and, for
// secure-world requests, on secure (S-bit) PTEs; a normal-world
// request touching a secure PTE is rejected — that is the TrustZone
// sMMU check.
func (u *IOMMU) Translate(req xlate.Request, at sim.Cycle) (xlate.Result, error) {
	if req.Bytes == 0 {
		return xlate.Result{}, fmt.Errorf("iommu: empty request")
	}
	if u.inj.Enabled() {
		for {
			ev, ok := u.inj.Take(fault.IOTLBCorrupt, at)
			if !ok {
				break
			}
			u.tlb.Corrupt(ev.Sel, ev.Bit)
		}
	}
	firstPage := mem.PageAlignDown(mem.PhysAddr(req.VA))
	lastPage := mem.PageAlignDown(mem.PhysAddr(uint64(req.VA) + req.Bytes - 1))
	var stall sim.Cycle
	var basePA mem.PhysAddr
	prevPPN := uint64(0)
	walks := int64(0) // IOTLB misses of this request
	first := true

	asid := 0
	if u.cfg.TagWithASID {
		asid = req.TaskID
	}
	for page := firstPage; ; page += mem.PageSize {
		va := mem.VirtAddr(page)
		pte, hit := u.tlb.Lookup(asid, va)
		if !hit {
			walked, accesses, err := u.table.Walk(va)
			walks++
			u.stats.IncID(sim.IDPageWalks)
			u.stats.IncID(sim.IDIOTLBMisses)
			u.stats.AddID(sim.IDPageWalkCycles, int64(u.cfg.WalkCyclesPerAccess)*int64(accesses))
			stall += u.cfg.WalkCyclesPerAccess * sim.Cycle(accesses)
			if err != nil {
				return xlate.Result{}, err
			}
			pte = walked
			u.tlb.Insert(asid, va, pte)
		}
		if !pte.Perm.Has(req.Need) {
			return xlate.Result{}, fmt.Errorf("iommu: %s access to va %#x denied (pte %s)",
				req.Need, uint64(req.VA), pte.Perm)
		}
		if pte.Secure && req.World != mem.Secure {
			return xlate.Result{}, fmt.Errorf("iommu: normal-world access to secure mapping va %#x", uint64(va))
		}
		if first {
			basePA = mem.PhysAddr(pte.PPN*mem.PageSize) + (mem.PhysAddr(req.VA) - page)
			first = false
		} else if pte.PPN != prevPPN+1 {
			// The DMA engine requires physically contiguous targets per
			// request; drivers allocate from CMA so this holds. Guard it.
			return xlate.Result{}, fmt.Errorf("iommu: request %#x+%d not physically contiguous",
				uint64(req.VA), req.Bytes)
		}
		prevPPN = pte.PPN
		if page == lastPage {
			break
		}
	}

	// Energy/count model (Fig. 13(b)): the IOTLB is consulted for every
	// memory packet, not just per page. Each walk is one miss and the
	// remaining packets hit (packet-aligned requests, as the compiler
	// emits, never touch more pages than packets).
	packets := req.Packets()
	u.stats.AddID(sim.IDIOTLBLookups, int64(packets))
	u.stats.AddID(sim.IDIOTLBHits, max(int64(packets)-walks, 0))
	u.stats.AddID(sim.IDTranslations, int64(packets))
	u.stats.AddID(sim.IDTranslationStall, int64(stall))
	if stall > 0 && u.obsWalk != nil {
		u.obsWalk.Observe(int64(stall))
		u.obsRec.Record(trace.Event{
			Name: "iotlb.walk", Kind: trace.KindIOTLB, Core: req.TaskID,
			Start: at, End: at + stall,
		})
	}
	return xlate.Result{PA: basePA, Stall: stall}, nil
}
