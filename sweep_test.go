package snpu

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Cross-commit sweep pins: the rendered serve, resilience and decode
// tables for several seeds and shapes, committed byte for byte. The
// decode and resilience snapshot summaries live in the same file under
// their own keys (cmd/snpu-bench's TestSweepSummaryGolden). Regenerate
// one package at a time, since both merge into the one file:
//
//	go test . -run TestSweepGolden -update-golden
//	go test ./cmd/snpu-bench -run TestSweepSummaryGolden -update-golden
//
// and review the diff like any other contract change.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/sweep_tables.golden entries")

var sweepGoldenPath = filepath.Join("testdata", "sweep_tables.golden")

// goldenSeeds are the seeds every pinned shape runs at.
var goldenSeeds = []int64{1, 3, 5, 7}

func TestSweepGolden(t *testing.T) {
	shapes := []struct {
		name  string
		bench func(int64, SweepConfig) (*SweepResult, error)
		cfg   SweepConfig
	}{
		{"serve/default", ServeBench, SweepConfig{}},
		// The syspool_test scenario's shape.
		{"serve/syspool", ServeBench, SweepConfig{Requests: 12, LoadsPerM: []float64{0.2}}},
		{"resilience/default", ResilienceBench, SweepConfig{}},
		// snpu-bench -small.
		{"resilience/small", ResilienceBench, SweepConfig{Requests: 12, LoadsPerM: []float64{0.4}}},
		{"decode/default", DecodeBench, SweepConfig{}},
		// snpu-bench -small.
		{"decode/small", DecodeBench, SweepConfig{Requests: 6, Batches: []int{1, 2}}},
	}
	got := map[string]string{}
	for _, shape := range shapes {
		for _, seed := range goldenSeeds {
			res, err := shape.bench(seed, shape.cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", shape.name, seed, err)
			}
			got[fmt.Sprintf("%s/seed%d", shape.name, seed)] = res.TableString()
		}
	}
	// The root secure run path's recovery ladder (snpu-bench -exp chaos).
	for _, seed := range goldenSeeds {
		res, err := Chaos("yololite", seed, nil)
		if err != nil {
			t.Fatalf("chaos/yololite seed %d: %v", seed, err)
		}
		got[fmt.Sprintf("chaos/yololite/seed%d", seed)] = res.TableString()
	}
	checkSweepGolden(t, got)
}

// checkSweepGolden compares got against the committed entries of the
// same keys, or merges got into the file under -update-golden. The file
// must also re-render byte for byte from its parsed entries, so a stray
// edit outside any entry fails too.
func checkSweepGolden(t *testing.T, got map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(sweepGoldenPath)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	want := parseSweepGolden(string(raw))
	if *updateGolden {
		for k, v := range got {
			want[k] = v
		}
		if err := os.WriteFile(sweepGoldenPath, []byte(renderSweepGolden(want)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if renderSweepGolden(want) != string(raw) {
		t.Errorf("%s does not re-render from its own entries (hand-edited outside an entry?)", sweepGoldenPath)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: no committed entry (rerun with -update-golden and review)", k)
		case got[k] != w:
			t.Errorf("%s differs from the committed entry:\n--- got ---\n%s--- want ---\n%s", k, got[k], w)
		}
	}
}

// parseSweepGolden splits the file into entries, each headed by a
// "-- key --" line. Text before the first header lands under the empty
// key, which renderSweepGolden drops.
func parseSweepGolden(s string) map[string]string {
	out := map[string]string{}
	key := ""
	for _, line := range strings.SplitAfter(s, "\n") {
		if name, ok := strings.CutPrefix(line, "-- "); ok && strings.HasSuffix(name, " --\n") {
			key = strings.TrimSuffix(name, " --\n")
			out[key] = ""
			continue
		}
		if line != "" {
			out[key] += line
		}
	}
	return out
}

func renderSweepGolden(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		if k != "" {
			fmt.Fprintf(&b, "-- %s --\n%s", k, m[k])
		}
	}
	return b.String()
}

// TestDecodeBenchDeterministicAndBatched pins the decode sweep's two
// contracts at once: the same seed renders a byte-identical table on
// fresh boots and on pooled (recycled) Systems, and widening MaxBatch
// actually engages continuous batching — joins appear and the
// preemption-induced inter-token tail collapses.
func TestDecodeBenchDeterministicAndBatched(t *testing.T) {
	experiments.SetPooling(false)
	res, err := DecodeBench(1, SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := res.TableString()

	experiments.SetPooling(true)
	defer experiments.SetPooling(true)
	res2, err := DecodeBench(1, SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pooled := res2.TableString(); pooled != fresh {
		t.Fatalf("decode sweep differs between fresh and pooled Systems:\n--- fresh ---\n%s--- pooled ---\n%s", fresh, pooled)
	}

	if len(res.Rows) != 3 {
		t.Fatalf("default sweep has %d rows, want 3", len(res.Rows))
	}
	solo, wide := res.Rows[0], res.Rows[len(res.Rows)-1]
	if solo.MaxBatch != 1 || wide.MaxBatch != 4 {
		t.Fatalf("unexpected batch points: %d..%d", solo.MaxBatch, wide.MaxBatch)
	}
	// Every point decodes the full trace to completion.
	for _, row := range res.Rows {
		if row.Completed != row.Requests {
			t.Fatalf("batch %d: %d/%d completed", row.MaxBatch, row.Completed, row.Requests)
		}
		if row.Tokens != solo.Tokens {
			t.Fatalf("batch %d retired %d tokens, batch 1 retired %d — token count must not depend on batching",
				row.MaxBatch, row.Tokens, solo.Tokens)
		}
		if row.TokensPerSec <= 0 || row.P99ITL <= 0 {
			t.Fatalf("batch %d: degenerate metrics %+v", row.MaxBatch, row)
		}
	}
	if solo.Joins != 0 {
		t.Fatalf("batch 1 recorded %d joins; continuous batching must be off at width 1", solo.Joins)
	}
	if wide.Joins == 0 || wide.BatchedRuns == 0 {
		t.Fatalf("batch 4 never batched: %+v", wide)
	}
	// The solo sweep's tail contains a full preemption (the plain secure
	// request runs in the middle of a token stream); batching absorbs it.
	if wide.P99ITL >= solo.P99ITL {
		t.Fatalf("batching did not cut the inter-token tail: batch1 p99=%d, batch4 p99=%d",
			solo.P99ITL, wide.P99ITL)
	}
}

// TestInterTokenPercentiles pins the nearest-rank helper shared by the
// latency and inter-token columns.
func TestInterTokenPercentiles(t *testing.T) {
	cases := []struct {
		name     string
		xs       []sim.Cycle
		p50, p99 sim.Cycle
	}{
		{"empty", nil, 0, 0},
		// A single-token request contributes no gaps.
		{"single-token", tokenGaps(map[int][]sim.Cycle{1: {42}}), 0, 0},
		// One request with uniform 10-cycle gaps, one with a single huge
		// gap: the pooled p99 must surface the outlier, the p50 the
		// common case.
		{"outlier", tokenGaps(map[int][]sim.Cycle{
			1: {100, 110, 120, 130, 140, 150, 160, 170, 180, 190},
			2: {200, 1_000_200},
		}), 10, 1_000_000},
		// Unsorted latencies: p50 is element n/2 and p99 element
		// n*99/100 of the sorted slice.
		{"latency", []sim.Cycle{900, 100, 500, 300, 700}, 500, 900},
	}
	for _, c := range cases {
		if p50, p99 := percentiles(c.xs); p50 != c.p50 || p99 != c.p99 {
			t.Errorf("%s: p50/p99 = %d/%d, want %d/%d", c.name, p50, p99, c.p50, c.p99)
		}
	}
}

// TestDecodeTraceShape pins the generator: decode requests round-robin
// the tenants with per-tenant specs, and the trailing plain request is
// the designated preemptor.
func TestDecodeTraceShape(t *testing.T) {
	trace := DecodeTrace(1, 10, 2)
	if len(trace) != 11 {
		t.Fatalf("trace has %d requests, want 11", len(trace))
	}
	for _, r := range trace[:10] {
		if r.Decode == nil || !r.Secure {
			t.Fatalf("req %d is not a secure decode request: %+v", r.ID, r)
		}
		want := decodeSpecFor(int(r.Tenant[1] - '0'))
		if *r.Decode != want {
			t.Fatalf("req %d (tenant %s) spec %+v does not match tenant spec %+v", r.ID, r.Tenant, *r.Decode, want)
		}
	}
	last := trace[10]
	if last.Decode != nil || last.Model != "mobilenet" || last.Priority <= 0 {
		t.Fatalf("trailing request is not the plain preemptor: %+v", last)
	}
	// Determinism of the generator itself.
	again := DecodeTrace(1, 10, 2)
	if !reflect.DeepEqual(trace, again) {
		t.Fatal("trace not deterministic across calls")
	}
}
