package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByCycle(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("final cycle = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-cycle events fired out of order: %v", order)
		}
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, tick)
		}
	}
	e.Schedule(0, tick)
	end := e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if end != 40 {
		t.Fatalf("end = %d, want 40", end)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++; e.Stop() })
	e.Schedule(2, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Stop should halt the loop)", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := []Cycle{}
	for _, c := range []Cycle{5, 15, 25} {
		c := c
		e.Schedule(c, func() { fired = append(fired, c) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 15 only", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %d, want 20", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
}

func TestEngineAdvance(t *testing.T) {
	e := NewEngine()
	e.Advance(100)
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("advancing backwards did not panic")
		}
	}()
	e.Advance(50)
}

func TestResourceSerializesClaims(t *testing.T) {
	r := NewResource("dram")
	s1 := r.Claim(0, 10)
	s2 := r.Claim(0, 10)
	s3 := r.Claim(5, 10)
	if s1 != 0 || s2 != 10 || s3 != 20 {
		t.Fatalf("starts = %d,%d,%d, want 0,10,20", s1, s2, s3)
	}
	if r.BusyCycles() != 30 {
		t.Fatalf("busy = %d, want 30", r.BusyCycles())
	}
}

func TestResourceIdleGap(t *testing.T) {
	r := NewResource("link")
	r.Claim(0, 4)
	s := r.Claim(100, 4)
	if s != 100 {
		t.Fatalf("claim after idle gap started at %d, want 100", s)
	}
	if got := r.Utilization(104); got <= 0 || got >= 1 {
		t.Fatalf("utilization = %v, want in (0,1)", got)
	}
}

func TestResourceZeroDuration(t *testing.T) {
	r := NewResource("x")
	r.Claim(0, 10)
	s := r.Claim(0, 0)
	if s != 10 {
		t.Fatalf("zero-duration claim start = %d, want 10", s)
	}
	if r.Claims() != 1 {
		t.Fatalf("zero-duration claim should not count, claims = %d", r.Claims())
	}
}

// Property: for any sequence of claims, grants never overlap and are
// monotonically ordered.
func TestResourceClaimsNeverOverlap(t *testing.T) {
	f := func(durs []uint8, earliests []uint16) bool {
		r := NewResource("p")
		type grant struct{ start, end Cycle }
		var grants []grant
		n := len(durs)
		if len(earliests) < n {
			n = len(earliests)
		}
		for i := 0; i < n; i++ {
			d := Cycle(durs[i]%64 + 1)
			s := r.Claim(Cycle(earliests[i]), d)
			grants = append(grants, grant{s, s + d})
		}
		for i := 1; i < len(grants); i++ {
			if grants[i].start < grants[i-1].end {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStats()
	s.IncID(IDNoCPackets)
	s.AddID(IDNoCPackets, 4)
	s.AddID(IDDMABytes, -2)
	if s.Get(CtrNoCPackets) != 5 || s.Get(CtrDMABytes) != -2 || s.Get("missing") != 0 {
		t.Fatalf("unexpected counters: %v", s.Snapshot())
	}
	names := s.Names()
	if len(names) != 2 || names[0] != CtrDMABytes || names[1] != CtrNoCPackets {
		t.Fatalf("names = %v", names)
	}
	s.Reset()
	if s.Get(CtrNoCPackets) != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestStatsSnapshotIsCopy(t *testing.T) {
	s := NewStats()
	s.AddID(IDSpadReads, 7)
	snap := s.Snapshot()
	snap[CtrSpadReads] = 99
	if s.Get(CtrSpadReads) != 7 {
		t.Fatal("snapshot aliases the live counter map")
	}
}
