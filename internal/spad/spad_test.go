package spad

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tee"
)

func newSpad(t *testing.T, kind Kind, isolated bool) *Scratchpad {
	t.Helper()
	s, err := New(Config{Lines: 64, LineBytes: 16, Kind: kind, Isolated: isolated}, sim.NewStats())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func secureCtx() tee.Context {
	return tee.NewMachine(mem.NewPhysical()).SecureContext()
}

func normalCtx() tee.Context {
	return tee.NewMachine(mem.NewPhysical()).NormalContext()
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(Config{Lines: 0, LineBytes: 16}, nil); err == nil {
		t.Fatal("zero lines accepted")
	}
	if _, err := New(Config{Lines: 4, LineBytes: 0}, nil); err == nil {
		t.Fatal("zero line bytes accepted")
	}
	if _, err := New(Config{Lines: 4, LineBytes: 16, IDBits: 9}, nil); err == nil {
		t.Fatal("9-bit ID accepted")
	}
}

func TestExclusiveReadDeniedAcrossDomains(t *testing.T) {
	s := newSpad(t, Exclusive, true)
	secret := []byte("confidential xyz")
	if err := s.Write(SecureDomain, 3, secret); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	err := s.Read(NonSecure, 3, buf)
	if !errors.Is(err, ErrIsolation) {
		t.Fatalf("cross-domain read allowed: %v", err)
	}
	// Owner can read.
	if err := s.Read(SecureDomain, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, secret) {
		t.Fatalf("payload mismatch: %q", buf)
	}
}

func TestExclusiveForcibleWriteRetags(t *testing.T) {
	s := newSpad(t, Exclusive, true)
	if err := s.Write(SecureDomain, 5, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	// Non-secure write is allowed and takes ownership.
	if err := s.Write(NonSecure, 5, []byte("mine")); err != nil {
		t.Fatalf("forcible write denied: %v", err)
	}
	if s.LineID(5) != NonSecure {
		t.Fatal("write did not retag line")
	}
	buf := make([]byte, 16)
	if err := s.Read(NonSecure, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte("mine")) {
		t.Fatalf("payload = %q", buf)
	}
	// The old secret must be gone (write zero-fills the tail).
	if bytes.Contains(buf, []byte("secret")) {
		t.Fatal("stale secret survived forcible write")
	}
}

func TestSharedRulesDenyNonSecureBothWays(t *testing.T) {
	s := newSpad(t, Shared, true)
	if err := s.Write(SecureDomain, 7, []byte("weights")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if err := s.Read(NonSecure, 7, buf); !errors.Is(err, ErrIsolation) {
		t.Fatalf("non-secure read of secure shared line: %v", err)
	}
	if err := s.Write(NonSecure, 7, []byte("evil")); !errors.Is(err, ErrIsolation) {
		t.Fatalf("non-secure write of secure shared line: %v", err)
	}
	// Secure core may access non-secure lines and claims them.
	if err := s.Write(NonSecure, 8, []byte("public")); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(SecureDomain, 8, buf); err != nil {
		t.Fatal(err)
	}
	if s.LineID(8) != SecureDomain {
		t.Fatal("secure access did not claim shared line")
	}
}

func TestBaselineLeaksStaleData(t *testing.T) {
	// The unprotected scratchpad is the LeftoverLocals vulnerability:
	// a non-secure reader recovers the victim's bytes.
	s := newSpad(t, Exclusive, false)
	secret := []byte("llm session data")
	if err := s.Write(SecureDomain, 0, secret); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if err := s.Read(NonSecure, 0, buf); err != nil {
		t.Fatalf("baseline denied read: %v", err)
	}
	if !bytes.Equal(buf, secret) {
		t.Fatal("baseline should leak the stale payload")
	}
}

func TestResetSecureRequiresSecureInstruction(t *testing.T) {
	s := newSpad(t, Shared, true)
	if err := s.Write(SecureDomain, 1, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := s.ResetSecure(normalCtx(), 0, 8); !errors.Is(err, tee.ErrPrivilege) {
		t.Fatalf("normal world reset secure lines: %v", err)
	}
	if err := s.ResetSecure(secureCtx(), 0, 8); err != nil {
		t.Fatal(err)
	}
	if s.LineID(1) != NonSecure {
		t.Fatal("line not retagged non-secure")
	}
	buf := make([]byte, 16)
	if err := s.Read(NonSecure, 1, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("reset leaked payload bytes")
		}
	}
	if err := s.ResetSecure(secureCtx(), 5, 3); err == nil {
		t.Fatal("inverted reset range accepted")
	}
	if err := s.ResetSecure(secureCtx(), 0, 1000); err == nil {
		t.Fatal("out-of-bounds reset accepted")
	}
}

func TestLineBounds(t *testing.T) {
	s := newSpad(t, Exclusive, true)
	if err := s.Read(NonSecure, -1, nil); err == nil {
		t.Fatal("negative line read accepted")
	}
	if err := s.Write(NonSecure, 64, nil); err == nil {
		t.Fatal("out-of-range line write accepted")
	}
	if s.LineID(-5) != 0 || s.LineValid(99) {
		t.Fatal("out-of-range metadata probes misbehaved")
	}
}

func TestMultiDomainIDBits(t *testing.T) {
	s, err := New(Config{Lines: 8, LineBytes: 16, Kind: Exclusive, Isolated: true, IDBits: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Four domains fit in 2 bits.
	for d := DomainID(0); d < 4; d++ {
		if err := s.Write(d, int(d), []byte{byte(d)}); err != nil {
			t.Fatalf("domain %d write: %v", d, err)
		}
	}
	// Domain 5 exceeds the tag width.
	if err := s.Write(5, 0, []byte{1}); err == nil {
		t.Fatal("domain beyond ID width accepted")
	}
	// Cross-domain reads denied pairwise.
	buf := make([]byte, 16)
	if err := s.Read(2, 3, buf); !errors.Is(err, ErrIsolation) {
		t.Fatalf("cross-domain read in multi-domain mode: %v", err)
	}
}

func TestCountDomain(t *testing.T) {
	s := newSpad(t, Exclusive, true)
	for i := 0; i < 10; i++ {
		if err := s.Write(SecureDomain, i, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if s.CountDomain(SecureDomain) != 10 {
		t.Fatalf("secure lines = %d", s.CountDomain(SecureDomain))
	}
	if s.CountDomain(NonSecure) != 54 {
		t.Fatalf("non-secure lines = %d", s.CountDomain(NonSecure))
	}
}

// Property (the paper's core isolation invariant): under any
// interleaving of reads/writes/resets by a secure and a non-secure
// actor, a non-secure read NEVER returns bytes last written by the
// secure domain.
func TestIsolationInvariantUnderRandomOps(t *testing.T) {
	for _, kind := range []Kind{Exclusive, Shared} {
		kind := kind
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			s, err := New(Config{Lines: 16, LineBytes: 8, Kind: kind, Isolated: true}, nil)
			if err != nil {
				return false
			}
			ctx := secureCtx()
			// lastWriter[i] tracks which domain's data sits in line i.
			lastWriter := make([]DomainID, 16)
			for op := 0; op < 500; op++ {
				line := rng.Intn(16)
				dom := DomainID(rng.Intn(2))
				switch rng.Intn(4) {
				case 0: // write
					payload := []byte{byte(dom), byte(op), 0xAA}
					if err := s.Write(dom, line, payload); err == nil {
						lastWriter[line] = dom
					}
				case 1: // read
					buf := make([]byte, 8)
					if err := s.Read(dom, line, buf); err == nil {
						if dom == NonSecure && lastWriter[line] == SecureDomain {
							return false // leak!
						}
						// Shared-kind secure reads claim the line.
						if kind == Shared && dom == SecureDomain {
							// data content unchanged; ownership moves but
							// lastWriter tracks payload origin, keep it.
							_ = ctx
						}
					}
				case 2: // secure reset of a random range
					from := rng.Intn(16)
					to := from + rng.Intn(16-from)
					if err := s.ResetSecure(ctx, from, to); err == nil {
						for i := from; i < to; i++ {
							lastWriter[i] = NonSecure // zeroed
						}
					}
				case 3: // metadata probes never mutate
					s.LineID(line)
					s.LineValid(line)
					s.CountDomain(dom)
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
	}
}

func TestFlushCost(t *testing.T) {
	stats := sim.NewStats()
	c := FlushCost(256<<10, 16, 100, stats)
	// Critical path: save 256KB at 16B/cycle + one DMA latency.
	if c != 16384+100 {
		t.Fatalf("flush cost = %d", c)
	}
	if stats.Get(sim.CtrSpadFlushBytes) != 512<<10 {
		t.Fatal("flush traffic not counted")
	}
	if FlushCost(0, 16, 100, stats) != 0 {
		t.Fatal("empty flush should be free")
	}
	if FlushCost(16, 0, 0, nil) <= 0 {
		t.Fatal("zero-bandwidth flush should still cost")
	}
}

func TestFlushGranularityString(t *testing.T) {
	for g, want := range map[FlushGranularity]string{
		FlushNone: "none", FlushPerTile: "tile", FlushPerLayer: "layer",
		FlushPer5Layers: "5-layers", FlushGranularity(99): "unknown",
	} {
		if g.String() != want {
			t.Fatalf("%d -> %q, want %q", g, g.String(), want)
		}
	}
}
