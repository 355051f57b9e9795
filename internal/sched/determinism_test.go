package sched_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	snpu "repro"
	"repro/internal/sched"
	"repro/internal/schedgen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Differential determinism: the scheduler's compile pool width and the
// identity of the System instance must be invisible in every observable
// output. The same trace replayed at Workers 1 vs 4, and on two
// independently booted Systems, must produce byte-identical decision
// logs and identical per-request cycle spans. CI runs this under -race,
// so the Workers=4 leg also proves the pool is data-race free.

// runTrace replays one ServeTrace episode on a fresh System. Sealed
// blobs are supplied by the caller so every leg of a differential pair
// shares the exact same bytes (sealing uses a random nonce; only the
// blob's length feeds the cycle model, but identical inputs keep the
// comparison airtight).
func runTrace(t *testing.T, seed int64, workers int, sealed map[string][]byte) *sched.Report {
	t.Helper()
	sys, err := snpu.New(snpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 3
	if err := schedgen.ProvisionKeys(sys, seed, tenants); err != nil {
		t.Fatal(err)
	}
	sc, err := sys.NewScheduler(sched.Config{
		Cores:   []int{0, 1, 2, 3},
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range snpu.ServeTrace(seed, 0.3, 24, tenants) {
		if r.Secure {
			r.Sealed = sealed[r.KeyID]
		}
		if err := sc.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sealedSet builds one sealed blob per tenant key, shared across every
// leg of a differential comparison.
func sealedSet(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	out, err := schedgen.SealedSet(seed, 3, []byte("determinism model"))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func diffReports(t *testing.T, label string, a, b *sched.Report) {
	t.Helper()
	if got, want := b.DecisionLog(), a.DecisionLog(); got != want {
		t.Fatalf("%s: decision logs diverge\n--- a ---\n%s\n--- b ---\n%s", label, want, got)
	}
	if a.Makespan != b.Makespan || a.FlushCycles != b.FlushCycles {
		t.Fatalf("%s: makespan/flush diverge: %d/%d vs %d/%d",
			label, a.Makespan, a.FlushCycles, b.Makespan, b.FlushCycles)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: result counts diverge: %d vs %d", label, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra != rb {
			t.Fatalf("%s: req %d diverges:\n a=%+v\n b=%+v", label, ra.ID, ra, rb)
		}
	}
}

func TestDifferentialDeterminism(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	hashes := trackScheduleHashes(t)
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			sealed := sealedSet(t, seed)
			ref := runTrace(t, seed, 1, sealed)
			hashes.record(t, ref)
			// Sanity: the reference episode did real work, so the
			// comparison below is not vacuous.
			if ref.Completed == 0 || ref.Makespan == 0 {
				t.Fatalf("reference episode did nothing: %+v", ref)
			}
			// Leg 1: compile-pool width must not leak into the schedule.
			wide := runTrace(t, seed, 4, sealed)
			diffReports(t, "workers 1 vs 4", ref, wide)
			// Leg 2: a second fresh System replays identically.
			again := runTrace(t, seed, 1, sealed)
			diffReports(t, "fresh system", ref, again)
		})
	}
}

// decodeTrace derives a deterministic decode episode from a seed: two
// tenants with distinct specs, staggered arrivals, mixed priorities,
// and one plain secure request so decode batches get preempted.
func decodeTrace(seed int64) []sched.Request {
	rng := rand.New(rand.NewSource(seed))
	specs := []workload.DecodeSpec{
		{Layers: 1, Hidden: 64, Heads: 4, FFN: 128, Prompt: 8, Steps: 3},
		{Layers: 1, Hidden: 64, Heads: 4, FFN: 128, Prompt: 16, Steps: 5},
	}
	var reqs []sched.Request
	for id := 1; id <= 8; id++ {
		ti := rng.Intn(len(specs))
		spec := specs[ti]
		reqs = append(reqs, sched.Request{
			ID: id, Tenant: fmt.Sprintf("t%d", ti), Secure: true, Decode: &spec,
			Arrival:  sim.Cycle(rng.Intn(400_000)),
			Priority: sched.Priority(rng.Intn(2) * 3),
		})
	}
	reqs = append(reqs, sched.Request{
		ID: 9, Tenant: "t0", Model: "mobilenet", Secure: true, Priority: 7,
		KeyID: schedgen.TenantKeyID(0), Arrival: sim.Cycle(100_000 + rng.Intn(100_000)),
	})
	return reqs
}

// runDecodeTrace replays one decode episode. When sys is nil a fresh
// System boots; passing a recycled (Reset) System pins the pooled-reuse
// path to the same observable outputs.
func runDecodeTrace(t *testing.T, seed int64, workers int, sys *snpu.System, sealed map[string][]byte) *sched.Report {
	t.Helper()
	if sys == nil {
		var err error
		sys, err = snpu.New(snpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := schedgen.ProvisionKeys(sys, seed, 2); err != nil {
		t.Fatal(err)
	}
	sc, err := sys.NewScheduler(sched.Config{
		Cores: []int{0, 1}, Workers: workers, MaxBatch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range decodeTrace(seed) {
		if r.Secure && r.Decode == nil {
			r.Sealed = sealed[r.KeyID]
		}
		if err := sc.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// diffDecodeReports extends diffReports with the per-token contract:
// identical token counts and byte-identical per-token retire cycles.
func diffDecodeReports(t *testing.T, label string, a, b *sched.Report) {
	t.Helper()
	diffReports(t, label, a, b)
	if a.Tokens != b.Tokens {
		t.Fatalf("%s: total tokens diverge: %d vs %d", label, a.Tokens, b.Tokens)
	}
	if !reflect.DeepEqual(a.TokenTimes, b.TokenTimes) {
		t.Fatalf("%s: per-token times diverge:\n a=%v\n b=%v", label, a.TokenTimes, b.TokenTimes)
	}
}

// Decode determinism: the same decode trace at compile-pool widths 1
// vs 4 and on a fresh vs a recycled (pool-path, Reset) System must
// produce byte-identical decision logs and identical per-token retire
// cycles. CI runs this under -race, so the wide leg also proves the
// decode compile fan-out is race free.
func TestDecodeDifferentialDeterminism(t *testing.T) {
	seeds := []int64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	hashes := trackScheduleHashes(t)
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			sealed := sealedSet(t, seed)
			ref := runDecodeTrace(t, seed, 1, nil, sealed)
			hashes.record(t, ref)
			if ref.Tokens == 0 || ref.Completed == 0 {
				t.Fatalf("reference decode episode did nothing: %+v", ref)
			}
			wide := runDecodeTrace(t, seed, 4, nil, sealed)
			diffDecodeReports(t, "workers 1 vs 4", ref, wide)

			// Pooled leg: run a throwaway episode on a System, hand it
			// back through Reset (exactly what the pool does), and replay
			// the trace on the recycled instance.
			pooled, err := snpu.New(snpu.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			_ = runDecodeTrace(t, seed+1000, 1, pooled, sealedSet(t, seed+1000))
			if err := pooled.Reset(); err != nil {
				t.Fatal(err)
			}
			recycled := runDecodeTrace(t, seed, 1, pooled, sealed)
			diffDecodeReports(t, "fresh vs recycled system", ref, recycled)
		})
	}
}

// The latency accounting is part of the deterministic contract too:
// per-request spans must be internally consistent with the report's
// aggregate makespan.
func TestDeterministicReportInternalConsistency(t *testing.T) {
	sealed := sealedSet(t, 5)
	rep := runTrace(t, 5, 2, sealed)
	var maxFinish sim.Cycle
	for _, r := range rep.Results {
		if r.Completed && r.Finish > maxFinish {
			maxFinish = r.Finish
		}
		if r.Completed && r.Latency() != r.Finish-r.Arrival {
			t.Fatalf("req %d latency %d != finish-arrival %d", r.ID, r.Latency(), r.Finish-r.Arrival)
		}
	}
	if maxFinish > rep.Makespan {
		t.Fatalf("a request finished at %d, after the reported makespan %d", maxFinish, rep.Makespan)
	}
}
