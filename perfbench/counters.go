package main

import "repro/internal/sim"

// readCounters is the one place the benchmark reads the simulator's
// counters: every counter by its exported name. When the counter
// system changes, this function changes and nothing else does.
func readCounters(s *sim.Stats) map[string]int64 { return s.Snapshot() }

// counterSum accumulates counter snapshots (or deltas between two).
type counterSum map[string]int64

func (c counterSum) add(snap map[string]int64) {
	for k, v := range snap {
		c[k] += v
	}
}

// delta returns after - before for every counter in after.
func delta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// layerCounters turns summed exported counters into the layers'
// count metrics, per step.
func (c counterSum) layerCounters(res metricSet, steps float64) {
	per := func(name string, v float64, unit string) { res.set(name, v/steps, unit) }
	per("mem.dram_mb", float64(c[sim.CtrDRAMBytes])/1e6, "MB/op")
	per("dma.requests", float64(c[sim.CtrDMARequests]), "count/op")
	per("dma.mb", float64(c[sim.CtrDMABytes])/1e6, "MB/op")
	per("xlate.requests", float64(c[sim.CtrTranslations]), "count/op")
	per("xlate.stall_kcyc", float64(c[sim.CtrTranslationStall])/1e3, "kcyc/op")
	res.set("iommu.iotlb_hit_ratio", ratio(float64(c[sim.CtrIOTLBHits]), float64(c[sim.CtrIOTLBLookups])), "ratio")
	per("iommu.pagewalks", float64(c[sim.CtrPageWalks]), "count/op")
	per("iommu.pagewalk_kcyc", float64(c[sim.CtrPageWalkCycles])/1e3, "kcyc/op")
	per("guarder.checks", float64(c[sim.CtrGuarderChecks]), "count/op")
	per("guarder.denied", float64(c[sim.CtrGuarderDenied]), "count/op")
	per("spad.flush_mb", float64(c[sim.CtrSpadFlushBytes])/1e6, "MB/op")
	per("spad.denied", float64(c[sim.CtrSpadDenied]), "count/op")
	per("noc.flits", float64(c[sim.CtrNoCFlits]), "count/op")
	per("noc.auth_fail", float64(c[sim.CtrNoCAuthFail]), "count/op")
	per("npu.compute_kcyc", float64(c[sim.CtrComputeCycles])/1e3, "kcyc/op")
	per("driver.ctx_switches", float64(c[sim.CtrCtxSwitches]), "count/op")
	per("monitor.calls", float64(c[sim.CtrMonitorCalls]), "count/op")
	per("monitor.rejected", float64(c[sim.CtrMonitorRejected]), "count/op")
}
