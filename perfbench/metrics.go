package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The two tables
// below are the metrics BENCHMARK.json declares, in its order; a run
// prints exactly one of the two sets, whatever the workload.
type metricDef struct{ name, unit string }

// endToEndMetrics are the untraced run's metrics. Every workload
// reports each of them: an op is a paper cell, a served request, a
// decoded token or a byom model, and a step is the unit the workload's
// loop times (a cell, a serving or scheduler episode, a model).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"step_p50_ms", "ms"},
}

// perLayerMetrics are the traced run's metrics. Every workload reports
// each of them; a layer the workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"sim.mcyc_per_s", "Mcyc/s"},
	{"sim.self_ms", "ms/op"},
	{"mem.dram_mb", "MB/op"},
	{"mem.self_ms", "ms/op"},
	{"dma.requests", "count/op"},
	{"dma.mb", "MB/op"},
	{"dma.self_ms", "ms/op"},
	{"xlate.requests", "count/op"},
	{"xlate.stall_kcyc", "kcyc/op"},
	{"xlate.self_ms", "ms/op"},
	{"iommu.iotlb_hit_ratio", "ratio"},
	{"iommu.pagewalks", "count/op"},
	{"iommu.pagewalk_kcyc", "kcyc/op"},
	{"iommu.iotlb_slowdown_pct", "%"},
	{"iommu.self_ms", "ms/op"},
	{"guarder.checks", "count/op"},
	{"guarder.denied", "count/op"},
	{"guarder.self_ms", "ms/op"},
	{"spad.flush_mb", "MB/op"},
	{"spad.denied", "count/op"},
	{"spad.self_ms", "ms/op"},
	{"noc.flits", "count/op"},
	{"noc.auth_fail", "count/op"},
	{"noc.transfer_kcyc", "kcyc/op"},
	{"noc.softnoc_slowdown_pct", "%"},
	{"noc.self_ms", "ms/op"},
	{"npu.exec_ms", "ms/op"},
	{"npu.compute_kcyc", "kcyc/op"},
	{"npu.compile_ms", "ms/op"},
	{"npu.compile_ops", "count/op"},
	{"npu.progcache_hit_ratio", "ratio"},
	{"npu.measure_ms", "ms/op"},
	{"npu.self_ms", "ms/op"},
	{"driver.ctx_switches", "count/op"},
	{"driver.self_ms", "ms/op"},
	{"monitor.calls", "count/op"},
	{"monitor.rejected", "count/op"},
	{"monitor.self_ms", "ms/op"},
	{"monitor.cum_ms", "ms/op"},
	{"sched.run_ms", "ms/op"},
	{"sched.preemptions", "count/op"},
	{"sched.batched_ratio", "ratio"},
	{"sched.joins", "count/op"},
	{"sched.flush_kcyc", "kcyc/op"},
	{"sched.queue_wait_p99_kcyc", "kcyc"},
	{"sched.sim_lat_p99_kcyc", "kcyc"},
	{"sched.sim_goodput_ratio", "ratio"},
	{"sched.sim_max_rate_per_mcyc", "1/Mcyc"},
	{"sched.sim_tokens_per_s", "1/s"},
	{"sched.sim_itl_p99_kcyc", "kcyc"},
	{"sched.self_ms", "ms/op"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.host_lat_p50_ms", "ms"},
	{"serve.host_lat_tail_ms", "ms"},
	{"serve.http_5xx", "count"},
	{"serve.self_ms", "ms/op"},
	{"graph.lower_ms", "ms/op"},
	{"graph.nodes", "count/op"},
	{"graph.self_ms", "ms/op"},
	{"experiments.pool_hit_ratio", "ratio"},
	{"go.alloc_mb_per_op", "MB/op"},
	{"go.gc_cpu_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// profiledLayers are the layers with a <layer>.self_ms metric, read
// from the CPU profile's self-time buckets.
func profiledLayers() []string {
	var out []string
	for _, d := range perLayerMetrics {
		if layer, ok := strings.CutSuffix(d.name, ".self_ms"); ok {
			out = append(out, layer)
		}
	}
	return out
}

// fillZero sets every metric of defs that res lacks to 0: the workload
// did not exercise that layer.
func fillZero(res metricSet, defs []metricDef) {
	for _, d := range defs {
		if _, ok := res[d.name]; !ok {
			res.set(d.name, 0, d.unit)
		}
	}
}

// conform checks that res holds exactly the metrics of defs, each in
// its unit.
func conform(res metricSet, defs []metricDef) error {
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.name] = d.unit
		got, ok := res[d.name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		if got.Unit != d.unit {
			return fmt.Errorf("metric %s in %s, declared in %s", d.name, got.Unit, d.unit)
		}
	}
	var extra []string
	for k := range res {
		if _, ok := want[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %v", extra)
	}
	return nil
}
