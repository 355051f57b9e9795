package sim

import (
	"testing"
	"testing/quick"
)

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
	if r.BusyCycles() != 8 {
		t.Fatalf("busy = %d, want 8 (the idle gap is not busy)", r.BusyCycles())
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
