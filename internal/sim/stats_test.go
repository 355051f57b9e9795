package sim

import (
	"math"
	"strings"
	"testing"
)

// Edge cases for the counter sink: Reset, overflow wrap-around, reads
// of unknown names, and the sorted read side.

func TestStatsResetClearsEveryCounter(t *testing.T) {
	s := NewStats()
	for id := CounterID(0); id < numCounters; id++ {
		s.AddID(id, int64(id)+1)
	}
	s.Reset()
	for _, name := range CounterNames() {
		if got := s.Get(name); got != 0 {
			t.Errorf("Get(%q) after Reset = %d, want 0", name, got)
		}
	}
	if names := s.Names(); len(names) != 0 {
		t.Errorf("Names() after Reset = %v, want none (only nonzero counters are listed)", names)
	}
}

func TestStatsOverflowWraps(t *testing.T) {
	// Counters are int64 and wrap on overflow per Go semantics; pin
	// that so nobody "fixes" it into a saturating or panicking path
	// without noticing (cycle math downstream assumes two's complement).
	s := NewStats()
	s.AddID(IDNoCFlits, math.MaxInt64)
	s.IncID(IDNoCFlits)
	if got := s.Get(CtrNoCFlits); got != math.MinInt64 {
		t.Fatalf("MaxInt64+1 = %d, want wraparound to MinInt64", got)
	}
	s.AddID(IDDMABytes, math.MinInt64)
	s.AddID(IDDMABytes, -1)
	if got := s.Get(CtrDMABytes); got != math.MaxInt64 {
		t.Fatalf("MinInt64-1 = %d, want wraparound to MaxInt64", got)
	}
}

func TestStatsGetUnknownIsZeroAndDoesNotCreate(t *testing.T) {
	s := NewStats()
	if got := s.Get("never-written"); got != 0 {
		t.Fatalf("Get(unknown) = %d, want 0", got)
	}
	if got := s.Get(CtrGuarderChecks); got != 0 {
		t.Fatalf("Get(unwritten counter) = %d, want 0", got)
	}
	if got := len(s.Names()); got != 0 {
		t.Fatalf("Get created a counter: Names() = %v", s.Names())
	}
}

func TestStatsStringSortedOutput(t *testing.T) {
	s := NewStats()
	s.AddID(IDNoCFlits, 1)
	s.AddID(IDDMABytes, 2)
	s.AddID(IDIOTLBHits, 3)
	out := s.String()
	want := "dma.bytes=2\niotlb.hits=3\nnoc.flits=1\n"
	if out != want {
		t.Fatalf("String() = %q, want %q", out, want)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("String() must end with a newline per line")
	}
}

func TestStatsEmptySnapshotAndString(t *testing.T) {
	s := NewStats()
	if snap := s.Snapshot(); len(snap) != 0 {
		t.Fatalf("empty Snapshot = %v", snap)
	}
	if out := s.String(); out != "" {
		t.Fatalf("empty String = %q", out)
	}
}
