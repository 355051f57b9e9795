package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	snpu "repro"
	"repro/internal/experiments"
	"repro/internal/npu"
)

// The -bench-json perf snapshot: wall-time per experiment, cells/sec,
// and allocation churn, written as BENCH_<date>.json so the repo
// carries a perf trajectory future PRs must not regress (the
// -bench-against gate in CI enforces a 2x ceiling).

// benchSchema versions the snapshot format.
const benchSchema = "snpu-bench/v1"

// BenchExperiment is one experiment's measurement.
type BenchExperiment struct {
	Name string `json:"name"`
	// WallNS is the experiment's wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Cells is how many experiment cells (SoC boots) the run executed.
	Cells int64 `json:"cells"`
	// CellsPerSec is Cells over wall time.
	CellsPerSec float64 `json:"cells_per_sec"`
	// Allocs and AllocBytes are the heap churn over the run (deltas of
	// runtime.MemStats.Mallocs / TotalAlloc).
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// AllocsPerCell / AllocBytesPerCell normalize the churn per
	// experiment cell (zero when the experiment has no cell notion).
	// These are the alloc-budget numbers the CI gate tracks.
	AllocsPerCell     float64 `json:"allocs_per_cell"`
	AllocBytesPerCell float64 `json:"alloc_bytes_per_cell"`
	// resilience and decode are the sweep summaries this run of the
	// experiment produced; newSnapshot lifts them into the snapshot's
	// own blocks, so they are not part of the per-experiment JSON.
	resilience *ResilienceSummary
	decode     *DecodeSummary
}

// BenchSnapshot is the whole perf snapshot.
type BenchSnapshot struct {
	Schema    string `json:"schema"`
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is runtime.GOMAXPROCS at snapshot time — on cgroup-
	// limited CI runners this, not NumCPU, is the real parallelism cap.
	GoMaxProcs int `json:"gomaxprocs"`
	// Jobs is the -j worker-pool width of the measured run; Workers is
	// the effective width the cell pool actually used.
	Jobs        int               `json:"jobs"`
	Workers     int               `json:"workers"`
	Experiments []BenchExperiment `json:"experiments"`
	TotalWallNS int64             `json:"total_wall_ns"`
	// SeqTotalWallNS is the sequential (-j 1) reference total, present
	// when the run measured a reference pass.
	SeqTotalWallNS int64 `json:"seq_total_wall_ns,omitempty"`
	// SeqExperiments are the reference pass's per-experiment
	// measurements. Their alloc numbers are scheduling-independent
	// (one worker, cold pools), so the allocs/cell CI gate compares
	// these rather than the parallel pass's (whose pool-miss count
	// varies with worker interleaving).
	SeqExperiments []BenchExperiment `json:"seq_experiments,omitempty"`
	// Speedup is SeqTotalWallNS / TotalWallNS; 1 by definition for a
	// -j 1 run. Always emitted — the CI speedup gate reads it.
	Speedup float64 `json:"speedup"`
	// Pool and compile-cache traffic over the whole run (hits = reuse).
	PoolHits           uint64 `json:"pool_hits"`
	PoolMisses         uint64 `json:"pool_misses"`
	CompileCacheHits   uint64 `json:"compile_cache_hits"`
	CompileCacheMisses uint64 `json:"compile_cache_misses"`
	// MetricsOverheadPct is the median of the observability layer's
	// measured enabled-vs-disabled wall-time overhead in percent over
	// alternating probe pairs, present when the snapshot was taken with
	// -metrics-overhead. CI gates the pairs' spread at
	// metricsOverheadLimitPct.
	MetricsOverheadPct float64 `json:"metrics_overhead_pct,omitempty"`
	// Resilience summarizes the resilience sweep when the run included
	// it (simulated-cycle quantities, so they are seed-deterministic
	// rather than wall-time noise; older snapshots simply omit it).
	Resilience *ResilienceSummary `json:"resilience,omitempty"`
	// Decode summarizes the decode sweep when the run included it
	// (seed-deterministic simulated-cycle quantities, like Resilience).
	Decode *DecodeSummary `json:"decode,omitempty"`
	// SpeedupGate records the -gate-speedup verdict so the snapshot is
	// self-describing: "pass", "fail", or an explicit skip marker like
	// "skipped: NumCPU<4" — a snapshot from a small runner must not
	// read as if the gate was evaluated and met. Empty when the run
	// did not ask for the gate.
	SpeedupGate string `json:"speedup_gate,omitempty"`
}

// ResilienceSummary condenses the resilience sweep into the snapshot:
// worst-cell goodput and p99 plus sweep-total recovery accounting.
type ResilienceSummary struct {
	Seed           int64   `json:"seed"`
	Cells          int     `json:"cells"`
	MinGoodputPerM float64 `json:"min_goodput_per_mcyc"`
	MaxP99Cycles   int64   `json:"max_p99_cycles"`
	Retries        int     `json:"retries"`
	Recovered      int     `json:"recovered"`
	Shed           int     `json:"shed"`
	Dropped        int     `json:"dropped"`
	Aborted        int     `json:"aborted"`
}

// DecodeSummary condenses the decode sweep into the snapshot: the
// widest-batch row's token throughput and inter-token tail, plus
// sweep-total batching activity. All simulated-cycle quantities, so
// they are seed-deterministic rather than wall-time noise.
type DecodeSummary struct {
	Seed int64 `json:"seed"`
	// MaxBatch is the widest batch point; TokensPerSec and P99ITLCycles
	// are that row's headline numbers (1 GHz cycle model).
	MaxBatch     int     `json:"max_batch"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	P99ITLCycles int64   `json:"p99_inter_token_cycles"`
	Tokens       int     `json:"tokens"`
	Joins        int     `json:"joins"`
	BatchedRuns  int     `json:"batched_runs"`
}

// decodeSummary condenses a decode sweep: the widest batch point's
// headline numbers plus sweep-total batching activity.
func decodeSummary(res *snpu.SweepResult) *DecodeSummary {
	sum := &DecodeSummary{Seed: res.Seed}
	for _, row := range res.Rows {
		if row.MaxBatch >= sum.MaxBatch {
			sum.MaxBatch = row.MaxBatch
			sum.TokensPerSec = row.TokensPerSec
			sum.P99ITLCycles = int64(row.P99ITL)
			sum.Tokens = row.Tokens
		}
		sum.Joins += row.Joins
		sum.BatchedRuns += row.BatchedRuns
	}
	return sum
}

// resilienceSummary condenses a resilience sweep: worst-cell goodput
// and p99 plus sweep-total recovery accounting.
func resilienceSummary(res *snpu.SweepResult) *ResilienceSummary {
	sum := &ResilienceSummary{Seed: res.Seed, Cells: len(res.Rows)}
	for i, row := range res.Rows {
		if i == 0 || row.ThroughputPerM < sum.MinGoodputPerM {
			sum.MinGoodputPerM = row.ThroughputPerM
		}
		if int64(row.P99) > sum.MaxP99Cycles {
			sum.MaxP99Cycles = int64(row.P99)
		}
		sum.Retries += row.Retries
		sum.Recovered += row.Recovered
		sum.Shed += row.Shed
		sum.Dropped += row.Dropped
		sum.Aborted += row.Aborted
	}
	return sum
}

// measureExperiment runs one spec, capturing wall time, cell count,
// and allocation deltas around it.
func measureExperiment(spec expSpec, opts options) (BenchExperiment, []section, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cellsBefore := experiments.CellsRun()
	start := time.Now()
	sections, err := spec.run(opts)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return BenchExperiment{}, nil, err
	}
	m := BenchExperiment{
		Name:       spec.name,
		WallNS:     wall.Nanoseconds(),
		Cells:      experiments.CellsRun() - cellsBefore,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}
	if wall > 0 {
		m.CellsPerSec = float64(m.Cells) / wall.Seconds()
	}
	if m.Cells > 0 {
		m.AllocsPerCell = float64(m.Allocs) / float64(m.Cells)
		m.AllocBytesPerCell = float64(m.AllocBytes) / float64(m.Cells)
	}
	for _, s := range sections {
		m.resilience = cmp.Or(s.resilience, m.resilience)
		m.decode = cmp.Or(s.decode, m.decode)
	}
	return m, sections, nil
}

// newSnapshot assembles the snapshot from per-experiment measurements.
// seqMeasured is the sequential reference pass (nil for a -j 1 run,
// where the main pass IS sequential and speedup is 1 by definition).
func newSnapshot(jobs int, measured, seqMeasured []BenchExperiment) BenchSnapshot {
	snap := BenchSnapshot{
		Schema:         benchSchema,
		Date:           time.Now().UTC().Format("2006-01-02"),
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Jobs:           jobs,
		Workers:        experiments.Workers(),
		Experiments:    measured,
		SeqExperiments: seqMeasured,
		Speedup:        1,
	}
	socHits, socMisses := experiments.PoolCounters()
	sysHits, sysMisses := snpu.SystemPoolCounters()
	snap.PoolHits = socHits + sysHits
	snap.PoolMisses = socMisses + sysMisses
	snap.CompileCacheHits, snap.CompileCacheMisses = npu.ProgCacheCounters()
	for _, m := range measured {
		snap.TotalWallNS += m.WallNS
		snap.Resilience = cmp.Or(m.resilience, snap.Resilience)
		snap.Decode = cmp.Or(m.decode, snap.Decode)
	}
	var seqTotalNS int64
	for _, m := range seqMeasured {
		seqTotalNS += m.WallNS
	}
	if seqTotalNS > 0 {
		snap.SeqTotalWallNS = seqTotalNS
		if snap.TotalWallNS > 0 {
			snap.Speedup = float64(seqTotalNS) / float64(snap.TotalWallNS)
		}
	}
	return snap
}

// writeSnapshot writes the snapshot as indented JSON.
func writeSnapshot(path string, snap BenchSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// readSnapshot loads a committed snapshot.
func readSnapshot(path string) (BenchSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return BenchSnapshot{}, err
	}
	var snap BenchSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return BenchSnapshot{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	if snap.Schema != benchSchema {
		return BenchSnapshot{}, fmt.Errorf("%s: unknown schema %q", path, snap.Schema)
	}
	return snap, nil
}

// speedupGateStatus evaluates the -gate-speedup verdict recorded in
// the snapshot's speedup_gate field. The explicit skip markers are part
// of the snapshot contract: a run on a small CI runner must record
// "skipped: NumCPU<4" rather than read as if the gate was met. Empty
// when the gate was not requested.
func speedupGateStatus(gate float64, numCPU, seqExperiments int, speedup float64) string {
	switch {
	case gate <= 0:
		return ""
	case numCPU < 4:
		return "skipped: NumCPU<4"
	case seqExperiments == 0:
		return "skipped: no sequential reference pass (need -bench-json and -j > 1)"
	case speedup < gate:
		return fmt.Sprintf("fail: speedup %.2f below gate %.2f", speedup, gate)
	default:
		return fmt.Sprintf("pass: speedup %.2f meets gate %.2f", speedup, gate)
	}
}

// regressionFloorNS ignores experiments whose baseline wall time is in
// the noise (scheduler jitter makes sub-50ms timings meaningless to
// ratio-compare).
const regressionFloorNS = 50 * int64(time.Millisecond)

// compareSnapshots reports every experiment whose wall time regressed
// more than 2x over the baseline's.
func compareSnapshots(baseline BenchSnapshot, measured []BenchExperiment) []string {
	base := make(map[string]BenchExperiment, len(baseline.Experiments))
	for _, e := range baseline.Experiments {
		base[e.Name] = e
	}
	var out []string
	for _, m := range measured {
		b, ok := base[m.Name]
		if !ok || b.WallNS < regressionFloorNS {
			continue
		}
		if m.WallNS > 2*b.WallNS {
			out = append(out, fmt.Sprintf("%s: %.0fms vs baseline %.0fms (>2x)",
				m.Name, float64(m.WallNS)/1e6, float64(b.WallNS)/1e6))
		}
	}
	return out
}

// The allocs/cell gate: fig1 is the canary experiment whose per-cell
// allocation budget CI tracks, with 10% headroom. Alloc counts are
// compared between sequential passes (one worker, cold pools) because
// the parallel pass's pool-miss count varies with worker interleaving.
const (
	allocGateExperiment = "fig1"
	allocGateTolerance  = 1.10
)

// allocPass picks the scheduling-independent measurement for name: the
// sequential reference pass when the snapshot has one, else the main
// pass (which for a -j 1 snapshot is already sequential).
func allocPass(snap BenchSnapshot, name string) (BenchExperiment, bool) {
	for _, set := range [][]BenchExperiment{snap.SeqExperiments, snap.Experiments} {
		for _, e := range set {
			if e.Name == name && e.Cells > 0 && e.AllocsPerCell > 0 {
				return e, true
			}
		}
	}
	return BenchExperiment{}, false
}

// allocRegression reports a non-empty message when the measured
// snapshot's fig1 allocs/cell regressed more than allocGateTolerance
// over the baseline's. Baselines without per-cell data (pre-speedup
// schema) skip the gate.
func allocRegression(baseline, snap BenchSnapshot) string {
	base, ok := allocPass(baseline, allocGateExperiment)
	if !ok {
		return ""
	}
	now, ok := allocPass(snap, allocGateExperiment)
	if !ok {
		return fmt.Sprintf("%s: no allocs/cell measurement to compare against baseline", allocGateExperiment)
	}
	if now.AllocsPerCell > allocGateTolerance*base.AllocsPerCell {
		return fmt.Sprintf("%s: %.0f allocs/cell vs baseline %.0f (>%d%%)",
			allocGateExperiment, now.AllocsPerCell, base.AllocsPerCell,
			int(allocGateTolerance*100)-100)
	}
	return ""
}

// comparisonTable renders a markdown table of this run against the
// baseline — the artifact CI uploads alongside the snapshot.
func comparisonTable(baseline, snap BenchSnapshot) string {
	base := make(map[string]BenchExperiment, len(baseline.Experiments))
	for _, e := range baseline.Experiments {
		base[e.Name] = e
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# snpu-bench comparison\n\n")
	fmt.Fprintf(&b, "- baseline: %s (%s, %d CPUs, -j %d)\n", baseline.Date, baseline.GoVersion, baseline.NumCPU, baseline.Jobs)
	fmt.Fprintf(&b, "- this run: %s (%s, %d CPUs, GOMAXPROCS %d, -j %d, %d workers)\n",
		snap.Date, snap.GoVersion, snap.NumCPU, snap.GoMaxProcs, snap.Jobs, snap.Workers)
	fmt.Fprintf(&b, "- speedup: %.2f (baseline %.2f)\n", snap.Speedup, baseline.Speedup)
	fmt.Fprintf(&b, "- pool hits/misses: %d/%d; compile cache %d/%d\n\n",
		snap.PoolHits, snap.PoolMisses, snap.CompileCacheHits, snap.CompileCacheMisses)
	fmt.Fprintf(&b, "| experiment | wall ms | baseline ms | ratio | allocs/cell | baseline |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|\n")
	for _, m := range snap.Experiments {
		bl, ok := base[m.Name]
		ratio, blMS, blAllocs := "-", "-", "-"
		if ok && bl.WallNS > 0 {
			ratio = fmt.Sprintf("%.2f", float64(m.WallNS)/float64(bl.WallNS))
			blMS = fmt.Sprintf("%.0f", float64(bl.WallNS)/1e6)
			blAllocs = fmt.Sprintf("%.0f", bl.AllocsPerCell)
		}
		fmt.Fprintf(&b, "| %s | %.0f | %s | %s | %.0f | %s |\n",
			m.Name, float64(m.WallNS)/1e6, blMS, ratio, m.AllocsPerCell, blAllocs)
	}
	return b.String()
}
