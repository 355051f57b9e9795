package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The snapshot half of the root package's sweep pins: the JSON-encoded
// decode and resilience summaries for each pinned seed and shape, kept
// in the root testdata/sweep_tables.golden next to the tables they
// condense. Regenerate with
//
//	go test ./cmd/snpu-bench -run TestSweepSummaryGolden -update-golden
//
// (one package at a time; the root TestSweepGolden merges into the same
// file) and review the diff.

var updateGolden = flag.Bool("update-golden", false, "rewrite the summary entries of testdata/sweep_tables.golden")

var sweepGoldenPath = filepath.Join("..", "..", "testdata", "sweep_tables.golden")

// sweepSnapshot runs one experiment through the suite and builds the
// snapshot it would write.
func sweepSnapshot(t *testing.T, opts options) BenchSnapshot {
	t.Helper()
	measured, err := runSuite(io.Discard, opts)
	if err != nil {
		t.Fatalf("%s (seed %d, small %v): %v", opts.exp, opts.seed, opts.small, err)
	}
	return newSnapshot(1, measured, nil)
}

func TestSweepSummaryGolden(t *testing.T) {
	got := map[string]string{}
	for _, small := range []bool{false, true} {
		shape := "default"
		if small {
			shape = "small"
		}
		for _, seed := range []int64{1, 3, 5, 7} {
			for _, exp := range []string{"decode", "resilience"} {
				snap := sweepSnapshot(t, options{exp: exp, seed: seed, small: small})
				var sum any = snap.Resilience
				if exp == "decode" {
					sum = snap.Decode
				}
				b, err := json.Marshal(sum)
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/%s/seed%d/summary", exp, shape, seed)] = string(b) + "\n"
			}
		}
	}

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
	for k, v := range got {
		if w, ok := want[k]; !ok || v != w {
			t.Errorf("%s: got %q, committed %q (present %v)", k, v, w, ok)
		}
	}
}

// parseSweepGolden and renderSweepGolden mirror the root package's
// reader and writer of the "-- key --" entry format.
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

// TestSnapshotOmitsOtherRunsSweeps: a snapshot carries a decode or
// resilience block only when its own run included that sweep, even
// after earlier runs in the same process did.
func TestSnapshotOmitsOtherRunsSweeps(t *testing.T) {
	for _, exp := range []string{"decode", "resilience"} {
		if snap := sweepSnapshot(t, options{exp: exp, seed: 1, small: true}); snap.Decode == nil && snap.Resilience == nil {
			t.Fatalf("-exp %s snapshot carries no summary block", exp)
		}
	}
	snap := sweepSnapshot(t, options{exp: "fig16", seed: 1})
	if snap.Decode != nil || snap.Resilience != nil {
		t.Fatalf("fig16 snapshot carries blocks from earlier runs: decode %+v, resilience %+v", snap.Decode, snap.Resilience)
	}
}
