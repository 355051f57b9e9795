package sched_test

// Cross-commit schedule pins: the randomized suites record, per seed,
// the episode's decision hash plus a hash of its per-request results
// and per-token retire cycles, and compare them against a committed
// table. The two golden decision logs cover one hand-written schedule
// each; this table covers every seed the property and differential
// suites run, so a refactor that changes any batch, drop, deadline,
// defer, reject or retry decision on any of them fails here. Regenerate
// with:
//
//	go test ./internal/sched -run 'RandomSchedules|DifferentialDeterminism' -update-golden
//
// and review the diff like any other contract change.

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
)

var scheduleHashPath = filepath.Join("testdata", "golden_schedule_hashes.txt")

// scheduleHashFileMu serializes read-modify-write of the golden table
// across test groups.
var scheduleHashFileMu sync.Mutex

// scheduleHashes collects one test group's hashes from its parallel
// subtests and checks them once the whole group has finished.
type scheduleHashes struct {
	mu  sync.Mutex
	got map[string]string
}

// trackScheduleHashes returns the group's collector and registers the
// comparison as a cleanup of the parent test, which runs after every
// parallel subtest has returned.
func trackScheduleHashes(t *testing.T) *scheduleHashes {
	h := &scheduleHashes{got: map[string]string{}}
	t.Cleanup(func() { h.check(t) })
	return h
}

// record stores the hashes of one seed's report under the subtest's
// name.
func (h *scheduleHashes) record(t *testing.T, rep *sched.Report) {
	t.Helper()
	line := fmt.Sprintf("%016x %016x", rep.DecisionHash(), outcomeHash(rep))
	h.mu.Lock()
	h.got[t.Name()] = line
	h.mu.Unlock()
}

// outcomeHash folds the per-request results (ascending ID) and the
// per-token retire cycles into one FNV-1a digest.
func outcomeHash(rep *sched.Report) uint64 {
	f := fnv.New64a()
	for _, r := range rep.Results {
		fmt.Fprintf(f, "%+v\n", r)
	}
	ids := make([]int, 0, len(rep.TokenTimes))
	for id := range rep.TokenTimes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(f, "%d:%v\n", id, rep.TokenTimes[id])
	}
	return f.Sum64()
}

func (h *scheduleHashes) check(t *testing.T) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.got) == 0 {
		return
	}
	scheduleHashFileMu.Lock()
	defer scheduleHashFileMu.Unlock()
	want, err := readScheduleHashes()
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if *updateGolden {
		for k, v := range h.got {
			want[k] = v
		}
		if err := writeScheduleHashes(want); err != nil {
			t.Fatal(err)
		}
		return
	}
	names := make([]string, 0, len(h.got))
	for k := range h.got {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: no committed schedule hash (rerun with -update-golden and review)", k)
			continue
		}
		if h.got[k] != w {
			t.Errorf("%s: schedule hash %s, committed %s (decision, outcome)", k, h.got[k], w)
		}
	}
}

func readScheduleHashes() (map[string]string, error) {
	out := map[string]string{}
	f, err := os.Open(scheduleHashPath)
	if err != nil {
		return out, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hashes, ok := strings.Cut(sc.Text(), " ")
		if ok {
			out[name] = hashes
		}
	}
	return out, sc.Err()
}

func writeScheduleHashes(m map[string]string) error {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s %s\n", k, m[k])
	}
	return os.WriteFile(scheduleHashPath, []byte(b.String()), 0o644)
}
