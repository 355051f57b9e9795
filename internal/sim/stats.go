package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Stats is the simulator's one counter store. Every counter — hardware
// events and the monitor, scheduler, serve and profiler instruments
// alike — has a CounterID indexing a dense array, so components count
// through AddID/IncID with no map lookup; names exist only on the read
// side (Get, Snapshot, Names, String) and in exports. A Stats value is
// a plain array: copying it snapshots every counter. Not safe for
// concurrent use: each simulated SoC is single-threaded and owns a
// private Stats.
type Stats struct {
	ids [numCounters]int64
}

// NewStats returns an empty counter set.
func NewStats() *Stats { return &Stats{} }

// AddID increments counter id by delta. Safe on a nil Stats, so
// components without a sink need no guard.
func (s *Stats) AddID(id CounterID, delta int64) {
	if s != nil {
		s.ids[id] += delta
	}
}

// IncID increments counter id by one. Safe on a nil Stats.
func (s *Stats) IncID(id CounterID) {
	if s != nil {
		s.ids[id]++
	}
}

// Inc increments counter name by one; a name no counter carries is
// ignored. Counting sites use IncID; Inc is kept because the benchmark
// module's profiler test (perfbench) calls it and that module is
// changed only together with the benchmark.
func (s *Stats) Inc(name string) {
	if id, ok := counterIDs[name]; ok {
		s.ids[id]++
	}
}

// Get reads counter name, zero for a name no counter carries.
func (s *Stats) Get(name string) int64 {
	if id, ok := counterIDs[name]; ok {
		return s.ids[id]
	}
	return 0
}

// Reset zeroes every counter.
func (s *Stats) Reset() { s.ids = [numCounters]int64{} }

// Snapshot copies the nonzero counters by name.
func (s *Stats) Snapshot() map[string]int64 {
	out := make(map[string]int64, 16)
	for id, v := range s.ids {
		if v != 0 {
			out[counterNames[id]] = v
		}
	}
	return out
}

// Names returns the sorted names Snapshot lists.
func (s *Stats) Names() []string {
	snap := s.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders the counters one per line, sorted by name.
func (s *Stats) String() string {
	var b strings.Builder
	for _, name := range s.Names() {
		fmt.Fprintf(&b, "%s=%d\n", name, s.Get(name))
	}
	return b.String()
}

// Common counter names used across the simulator. Keeping them here
// avoids typo'd string literals scattering through components.
const (
	CtrDRAMRequests     = "dram.requests"
	CtrDRAMBytes        = "dram.bytes"
	CtrDMARequests      = "dma.requests"
	CtrDMAPackets       = "dma.packets"
	CtrDMABytes         = "dma.bytes"
	CtrIOTLBLookups     = "iotlb.lookups"
	CtrIOTLBHits        = "iotlb.hits"
	CtrIOTLBMisses      = "iotlb.misses"
	CtrIOTLBFlushes     = "iotlb.flushes"
	CtrPageWalks        = "iommu.pagewalks"
	CtrPageWalkCycles   = "iommu.pagewalk_cycles"
	CtrGuarderChecks    = "guarder.checks"
	CtrGuarderDenied    = "guarder.denied"
	CtrSpadReads        = "spad.reads"
	CtrSpadWrites       = "spad.writes"
	CtrSpadDenied       = "spad.denied"
	CtrSpadFlushBytes   = "spad.flush_bytes"
	CtrNoCPackets       = "noc.packets"
	CtrNoCFlits         = "noc.flits"
	CtrNoCAuthPass      = "noc.auth_pass"
	CtrNoCAuthFail      = "noc.auth_fail"
	CtrComputeCycles    = "npu.compute_cycles"
	CtrComputeMACs      = "npu.macs"
	CtrMonitorCalls     = "monitor.calls"
	CtrMonitorRejected  = "monitor.rejected"
	CtrCtxSwitches      = "driver.ctx_switches"
	CtrTranslations     = "xlate.requests"
	CtrTranslationStall = "xlate.stall_cycles"

	// Fault injection, detection, and recovery.
	CtrFaultsInjected    = "fault.injected"
	CtrECCCorrected      = "mem.ecc_corrected"
	CtrECCUncorrectable  = "mem.ecc_uncorrectable"
	CtrSpadParityErrors  = "spad.parity_errors"
	CtrIOTLBParityErrors = "iotlb.parity_errors"
	CtrNoCCRCFail        = "noc.crc_fail"
	CtrNoCDrops          = "noc.drops"
	CtrNoCRetries        = "noc.retries"
	CtrNoCReroutes       = "noc.reroutes"
	CtrNoCLinksDown      = "noc.links_down"
	CtrDMATimeouts       = "dma.timeouts"
	CtrDMARetries        = "dma.retries"
	CtrCoreHangs         = "npu.core_hangs"
	CtrMonitorAborts     = "monitor.aborts"
	CtrTaskRestarts      = "recovery.task_restarts"
	CtrRecoveredFaults   = "recovery.recovered"
	CtrUnrecoveredFaults = "recovery.unrecovered"

	// Monitor, scheduler, serve-daemon and profiler instruments.
	CtrMonitorPreempts     = "monitor.preempt.count"
	CtrSchedDispatches     = "sched.dispatch.count"
	CtrSchedPreempts       = "sched.preempt.count"
	CtrSchedCompletes      = "sched.complete.count"
	CtrSchedRejects        = "sched.reject.count"
	CtrSchedAborts         = "sched.abort.count"
	CtrSchedBatches        = "sched.batch.count"
	CtrSchedRetries        = "sched.retry"
	CtrSchedDeadlineMisses = "sched.deadline_miss"
	CtrServeShed           = "serve.shed"
	CtrProfilerSamples     = "profiler.sample.count"
)

// CounterID names one counter; IDs index Stats' dense array.
type CounterID uint8

// Counter IDs: one per Ctr* name, in the same order, then the
// per-kind fault injection counts.
const (
	IDDRAMRequests CounterID = iota
	IDDRAMBytes
	IDDMARequests
	IDDMAPackets
	IDDMABytes
	IDIOTLBLookups
	IDIOTLBHits
	IDIOTLBMisses
	IDIOTLBFlushes
	IDPageWalks
	IDPageWalkCycles
	IDGuarderChecks
	IDGuarderDenied
	IDSpadReads
	IDSpadWrites
	IDSpadDenied
	IDSpadFlushBytes
	IDNoCPackets
	IDNoCFlits
	IDNoCAuthPass
	IDNoCAuthFail
	IDComputeCycles
	IDComputeMACs
	IDMonitorCalls
	IDMonitorRejected
	IDCtxSwitches
	IDTranslations
	IDTranslationStall
	IDFaultsInjected
	IDECCCorrected
	IDECCUncorrectable
	IDSpadParityErrors
	IDIOTLBParityErrors
	IDNoCCRCFail
	IDNoCDrops
	IDNoCRetries
	IDNoCReroutes
	IDNoCLinksDown
	IDDMATimeouts
	IDDMARetries
	IDCoreHangs
	IDMonitorAborts
	IDTaskRestarts
	IDRecoveredFaults
	IDUnrecoveredFaults
	IDMonitorPreempts
	IDSchedDispatches
	IDSchedPreempts
	IDSchedCompletes
	IDSchedRejects
	IDSchedAborts
	IDSchedBatches
	IDSchedRetries
	IDSchedDeadlineMisses
	IDServeShed
	IDProfilerSamples

	// Per-kind fault injection counts, in fault.Kind order.
	IDFaultInjectedDRAMBitFlip
	IDFaultInjectedNoCCorrupt
	IDFaultInjectedNoCDrop
	IDFaultInjectedNoCLinkDown
	IDFaultInjectedDMAStall
	IDFaultInjectedIOTLBCorrupt
	IDFaultInjectedSpadBitFlip
	IDFaultInjectedCoreHang

	numCounters
)

// counterNames is the one ID->name table; counterIDs inverts it.
var counterNames = [numCounters]string{
	IDDRAMRequests: CtrDRAMRequests, IDDRAMBytes: CtrDRAMBytes,
	IDDMARequests: CtrDMARequests, IDDMAPackets: CtrDMAPackets, IDDMABytes: CtrDMABytes,
	IDIOTLBLookups: CtrIOTLBLookups, IDIOTLBHits: CtrIOTLBHits, IDIOTLBMisses: CtrIOTLBMisses, IDIOTLBFlushes: CtrIOTLBFlushes,
	IDPageWalks: CtrPageWalks, IDPageWalkCycles: CtrPageWalkCycles,
	IDGuarderChecks: CtrGuarderChecks, IDGuarderDenied: CtrGuarderDenied,
	IDSpadReads: CtrSpadReads, IDSpadWrites: CtrSpadWrites, IDSpadDenied: CtrSpadDenied, IDSpadFlushBytes: CtrSpadFlushBytes,
	IDNoCPackets: CtrNoCPackets, IDNoCFlits: CtrNoCFlits, IDNoCAuthPass: CtrNoCAuthPass, IDNoCAuthFail: CtrNoCAuthFail,
	IDComputeCycles: CtrComputeCycles, IDComputeMACs: CtrComputeMACs,
	IDMonitorCalls: CtrMonitorCalls, IDMonitorRejected: CtrMonitorRejected, IDCtxSwitches: CtrCtxSwitches,
	IDTranslations: CtrTranslations, IDTranslationStall: CtrTranslationStall,
	IDFaultsInjected: CtrFaultsInjected, IDECCCorrected: CtrECCCorrected, IDECCUncorrectable: CtrECCUncorrectable,
	IDSpadParityErrors: CtrSpadParityErrors, IDIOTLBParityErrors: CtrIOTLBParityErrors,
	IDNoCCRCFail: CtrNoCCRCFail, IDNoCDrops: CtrNoCDrops, IDNoCRetries: CtrNoCRetries, IDNoCReroutes: CtrNoCReroutes, IDNoCLinksDown: CtrNoCLinksDown,
	IDDMATimeouts: CtrDMATimeouts, IDDMARetries: CtrDMARetries, IDCoreHangs: CtrCoreHangs, IDMonitorAborts: CtrMonitorAborts,
	IDTaskRestarts: CtrTaskRestarts, IDRecoveredFaults: CtrRecoveredFaults, IDUnrecoveredFaults: CtrUnrecoveredFaults,
	IDMonitorPreempts: CtrMonitorPreempts,
	IDSchedDispatches: CtrSchedDispatches, IDSchedPreempts: CtrSchedPreempts, IDSchedCompletes: CtrSchedCompletes,
	IDSchedRejects: CtrSchedRejects, IDSchedAborts: CtrSchedAborts, IDSchedBatches: CtrSchedBatches,
	IDSchedRetries: CtrSchedRetries, IDSchedDeadlineMisses: CtrSchedDeadlineMisses,
	IDServeShed: CtrServeShed, IDProfilerSamples: CtrProfilerSamples,

	IDFaultInjectedDRAMBitFlip:  CtrFaultsInjected + ".dram-bit-flip",
	IDFaultInjectedNoCCorrupt:   CtrFaultsInjected + ".noc-corrupt",
	IDFaultInjectedNoCDrop:      CtrFaultsInjected + ".noc-drop",
	IDFaultInjectedNoCLinkDown:  CtrFaultsInjected + ".noc-link-down",
	IDFaultInjectedDMAStall:     CtrFaultsInjected + ".dma-stall",
	IDFaultInjectedIOTLBCorrupt: CtrFaultsInjected + ".iotlb-corrupt",
	IDFaultInjectedSpadBitFlip:  CtrFaultsInjected + ".spad-bit-flip",
	IDFaultInjectedCoreHang:     CtrFaultsInjected + ".core-hang",
}

var counterIDs = func() map[string]CounterID {
	m := make(map[string]CounterID, numCounters)
	for id, name := range counterNames {
		m[name] = CounterID(id)
	}
	return m
}()

// String returns the counter's export name.
func (id CounterID) String() string { return counterNames[id] }

// CounterNames lists every counter's name in ID order. A metrics
// registry with a Stats attached exports all of them, zeros included.
func CounterNames() []string { return append([]string(nil), counterNames[:]...) }
