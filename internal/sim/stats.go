package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Stats is the simulator's hardware-counter sink. Each canonical counter
// (the Ctr* names below) has a CounterID indexing a dense array, so
// components count through AddID/IncID with no map lookup; names exist
// only on the read side (Get, Snapshot, Names, String), which lists
// canonical counters when nonzero. The string-keyed Add/Inc/Set/Counter
// serve ad-hoc names outside the table (tests, tools) and resolve a
// canonical name to its array cell. Not safe for concurrent use: each
// simulated SoC is single-threaded and owns a private Stats.
type Stats struct {
	ids    [numCounters]int64
	extras map[string]*int64 // non-canonical names, created on first use
}

// NewStats returns an empty counter set.
func NewStats() *Stats { return &Stats{extras: make(map[string]*int64)} }

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

// Counter returns the stable cell for name, creating a non-canonical
// counter at zero on first use. The pointer stays valid across Reset.
func (s *Stats) Counter(name string) *int64 {
	if id, ok := counterIDs[name]; ok {
		return &s.ids[id]
	}
	if c, ok := s.extras[name]; ok {
		return c
	}
	c := new(int64)
	s.extras[name] = c
	return c
}

// Add increments counter name by delta.
func (s *Stats) Add(name string, delta int64) { *s.Counter(name) += delta }

// Inc increments counter name by one.
func (s *Stats) Inc(name string) { s.Add(name, 1) }

// Get reads counter name, zero if never written.
func (s *Stats) Get(name string) int64 {
	if id, ok := counterIDs[name]; ok {
		return s.ids[id]
	}
	if c, ok := s.extras[name]; ok {
		return *c
	}
	return 0
}

// Set overwrites counter name.
func (s *Stats) Set(name string, v int64) { *s.Counter(name) = v }

// Reset zeroes every counter in place; pointers returned by Counter
// remain valid and read zero afterwards.
func (s *Stats) Reset() {
	s.ids = [numCounters]int64{}
	for _, c := range s.extras {
		*c = 0
	}
}

// Snapshot copies the nonzero canonical counters and every
// non-canonical counter created so far.
func (s *Stats) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(s.extras)+16)
	for id, v := range s.ids {
		if v != 0 {
			out[counterNames[id]] = v
		}
	}
	for k, v := range s.extras {
		out[k] = *v
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
)

// CounterID names one canonical counter; IDs index Stats' dense array.
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

// numCanonical counts the IDs that carry a Ctr* name.
const numCanonical = IDFaultInjectedDRAMBitFlip

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

// CanonicalCounters lists the Ctr* names in declaration order: the
// component namespace (noc.*, dma.*, npu.*, iotlb.*, monitor.*, ...)
// that metrics exports cover in full, zeros included. Per-kind fault
// injection counts are typed too but appear only when nonzero.
func CanonicalCounters() []string {
	return append([]string(nil), counterNames[:numCanonical]...)
}
