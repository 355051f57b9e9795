// Package spad models the NPU scratchpad: a software-managed,
// index-addressed SRAM with no association to system memory, extended
// with the paper's ID-based isolation (§IV-B, §V).
//
// Each wordline carries a small ID state (one bit for the two-domain
// default; the width is configurable per §VII "Multiple Secure
// Domains"). Two rule sets apply:
//
//   - Exclusive (core-local) scratchpad: reads require the line's ID to
//     match the accessing core's ID; writes are always allowed and
//     overwrite the line's ID with the writer's. This makes stale
//     secrets unreadable (LeftoverLocals) without any flushing.
//   - Shared (global) scratchpad: non-secure cores may neither read
//     nor write secure lines; a secure core's access forcibly sets the
//     touched line secure. A dedicated secure instruction resets lines
//     back to non-secure.
//
// The checks are combinational (same-cycle), so isolation adds zero
// runtime cost; the cost model for the *strawman* mechanisms (flushing
// with context save/restore, static partition) lives in flush.go.
package spad

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tee"
)

// DomainID is a wordline's (or core's) security-domain tag. Domain 0
// is the normal world; the default configuration has exactly one other
// domain (1 = secure), matching TrustZone-style partitioning.
type DomainID uint8

const (
	// NonSecure is the normal-world domain tag.
	NonSecure DomainID = 0
	// SecureDomain is the default secure-world domain tag.
	SecureDomain DomainID = 1
)

// Kind selects which access-rule set a scratchpad enforces.
type Kind uint8

const (
	// Exclusive is a core-local scratchpad (input/output scratchpad in
	// Gemmini terms).
	Exclusive Kind = iota
	// Shared is a globally visible scratchpad (or the accumulator
	// banks shared across cores).
	Shared
)

func (k Kind) String() string {
	if k == Exclusive {
		return "exclusive"
	}
	return "shared"
}

// ErrIsolation is returned when the ID-state rules deny an access.
var ErrIsolation = errors.New("spad: access denied by ID-state isolation")

// ErrParity is returned when a read hits a wordline whose stored
// parity no longer matches its payload (an SRAM bit flip). The access
// fails closed; recovery is the task's to arrange (abort or restart
// from a checkpoint) — corrupted operands must never flow silently.
var ErrParity = errors.New("spad: wordline parity error")

// Config describes a scratchpad instance.
type Config struct {
	// Lines is the number of wordlines.
	Lines int
	// LineBytes is the payload per wordline (paper: 128b=16B for
	// input/output scratchpads, 512b=64B for accumulators).
	LineBytes int
	// Kind selects exclusive vs shared access rules.
	Kind Kind
	// IDBits is the width of the per-line domain tag (default 1).
	IDBits int
	// Isolated enables ID checking; false models the unprotected
	// baseline NPU (attacks succeed against it).
	Isolated bool
	// Parity arms per-wordline parity: writes stamp a parity byte,
	// reads verify it and fail closed on mismatch. Off models SRAM
	// without error detection (bit flips flow silently).
	Parity bool
}

// Scratchpad is one SRAM instance with per-line ID state.
type Scratchpad struct {
	cfg    Config
	data   []byte
	ids    []DomainID
	valid  []bool
	parity []uint8
	inj    *fault.Injector
	stats  *sim.Stats
}

// New builds a scratchpad; payload bytes are zero, all lines
// non-secure and invalid (never written).
func New(cfg Config, stats *sim.Stats) (*Scratchpad, error) {
	if cfg.Lines <= 0 || cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("spad: invalid geometry %d x %dB", cfg.Lines, cfg.LineBytes)
	}
	if cfg.IDBits == 0 {
		cfg.IDBits = 1
	}
	if cfg.IDBits < 1 || cfg.IDBits > 8 {
		return nil, fmt.Errorf("spad: IDBits %d out of range [1,8]", cfg.IDBits)
	}
	s := &Scratchpad{
		cfg:   cfg,
		data:  make([]byte, cfg.Lines*cfg.LineBytes),
		ids:   make([]DomainID, cfg.Lines),
		valid: make([]bool, cfg.Lines),
		stats: stats,
	}
	if cfg.Parity {
		s.parity = make([]uint8, cfg.Lines)
	}
	return s, nil
}

// AttachInjector points the scratchpad at a fault injector; bit-flip
// events fire at the next access after their scheduled cycle.
func (s *Scratchpad) AttachInjector(inj *fault.Injector) { s.inj = inj }

// ParityEnabled reports whether per-line parity is armed.
func (s *Scratchpad) ParityEnabled() bool { return s.cfg.Parity }

// Config returns the scratchpad's configuration.
func (s *Scratchpad) Config() Config { return s.cfg }

// Lines returns the wordline count.
func (s *Scratchpad) Lines() int { return s.cfg.Lines }

// LineBytes returns the payload bytes per wordline.
func (s *Scratchpad) LineBytes() int { return s.cfg.LineBytes }

// Bytes returns the total payload capacity.
func (s *Scratchpad) Bytes() int { return s.cfg.Lines * s.cfg.LineBytes }

func (s *Scratchpad) maxDomain() DomainID {
	return DomainID(1<<s.cfg.IDBits - 1)
}

func (s *Scratchpad) checkLine(line int) error {
	if line < 0 || line >= s.cfg.Lines {
		return fmt.Errorf("spad: line %d out of range (%d lines)", line, s.cfg.Lines)
	}
	return nil
}

func (s *Scratchpad) checkDomain(d DomainID) error {
	if d > s.maxDomain() {
		return fmt.Errorf("spad: domain %d exceeds %d-bit ID state", d, s.cfg.IDBits)
	}
	return nil
}

// LineID reports the current domain tag of a line.
func (s *Scratchpad) LineID(line int) DomainID {
	if line < 0 || line >= s.cfg.Lines {
		return 0
	}
	return s.ids[line]
}

// LineValid reports whether a line has ever been written.
func (s *Scratchpad) LineValid(line int) bool {
	if line < 0 || line >= s.cfg.Lines {
		return false
	}
	return s.valid[line]
}

// Read copies one wordline into dst (len(dst) capped at LineBytes),
// enforcing the ID rules for a core in domain `core`.
//
// Exclusive rule: a read is denied when the line's ID differs from the
// core's. Shared rule: a non-secure core is denied on any line tagged
// with a different (secure) domain; a secure core's read retags the
// line to its own domain.
//
// With Isolated=false (baseline NPU) the read always succeeds, even of
// stale lines written by another task — the LeftoverLocals bug.
func (s *Scratchpad) Read(core DomainID, line int, dst []byte) error {
	s.takeFaults()
	if err := s.checkLine(line); err != nil {
		return err
	}
	if err := s.checkDomain(core); err != nil {
		return err
	}
	s.stats.IncID(sim.IDSpadReads)
	if s.cfg.Isolated {
		switch s.cfg.Kind {
		case Exclusive:
			if s.ids[line] != core {
				return s.deny("read", core, line)
			}
		case Shared:
			if s.ids[line] != core && core == NonSecure {
				return s.deny("read", core, line)
			}
			// A secure core touching a line claims it for its domain.
			s.ids[line] = core
		}
	}
	if err := s.VerifyParity(line); err != nil {
		return err
	}
	copy(dst, s.lineSlice(line))
	return nil
}

// Write stores src into a wordline.
//
// Exclusive rule: writes always succeed and retag the line with the
// writer's ID (forcible overwrite — the old secret is destroyed, not
// disclosed). Shared rule: a non-secure core may not overwrite a
// secure line; a secure core's write retags the line.
func (s *Scratchpad) Write(core DomainID, line int, src []byte) error {
	s.takeFaults()
	if err := s.checkLine(line); err != nil {
		return err
	}
	if err := s.checkDomain(core); err != nil {
		return err
	}
	s.stats.IncID(sim.IDSpadWrites)
	if s.cfg.Isolated && s.cfg.Kind == Shared && s.ids[line] != core && core == NonSecure {
		return s.deny("write", core, line)
	}
	dst := s.lineSlice(line)
	n := copy(dst, src)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	s.ids[line] = core
	s.valid[line] = true
	if s.parity != nil {
		s.parity[line] = lineParity(dst)
	}
	return nil
}

// takeFaults drains any scratchpad bit-flip events that have come due
// and applies them before the access proceeds. The line is chosen
// deterministically from the event's selector.
func (s *Scratchpad) takeFaults() {
	if !s.inj.Enabled() {
		return
	}
	for {
		ev, ok := s.inj.TakeAt(fault.SpadBitFlip)
		if !ok {
			return
		}
		s.InjectBitFlip(ev.Pick(s.cfg.Lines), ev.Bit)
	}
}

// InjectBitFlip flips one bit of a wordline's payload without updating
// the stored parity — exactly what an SRAM upset does.
func (s *Scratchpad) InjectBitFlip(line int, bit uint8) {
	if line < 0 || line >= s.cfg.Lines {
		return
	}
	b := int(bit) % (s.cfg.LineBytes * 8)
	s.lineSlice(line)[b/8] ^= 1 << uint(b%8)
}

// VerifyParity checks one wordline against its stored parity byte,
// counting and failing closed on mismatch. With parity disabled it
// always succeeds (the silent-corruption baseline).
func (s *Scratchpad) VerifyParity(line int) error {
	if s.parity == nil {
		return nil
	}
	if lineParity(s.lineSlice(line)) == s.parity[line] {
		return nil
	}
	s.stats.IncID(sim.IDSpadParityErrors)
	return fmt.Errorf("%w: %s line %d", ErrParity, s.cfg.Kind, line)
}

func lineParity(b []byte) uint8 {
	var p uint8
	for _, x := range b {
		p ^= x
	}
	return p
}

func (s *Scratchpad) deny(op string, core DomainID, line int) error {
	s.stats.IncID(sim.IDSpadDenied)
	return fmt.Errorf("%w: %s of %s line %d (tag %d) by core domain %d",
		ErrIsolation, op, s.cfg.Kind, line, s.ids[line], core)
}

func (s *Scratchpad) lineSlice(line int) []byte {
	return s.data[line*s.cfg.LineBytes : (line+1)*s.cfg.LineBytes]
}

// ResetSecure is the dedicated secure instruction that returns lines
// [from, to) to the non-secure domain, zeroing their payload so no
// secret outlives the retag. Only the secure world may issue it.
func (s *Scratchpad) ResetSecure(ctx tee.Context, from, to int) error {
	if err := ctx.RequireSecure(); err != nil {
		return err
	}
	if from < 0 || to > s.cfg.Lines || from > to {
		return fmt.Errorf("spad: reset range [%d,%d) out of bounds", from, to)
	}
	for line := from; line < to; line++ {
		dst := s.lineSlice(line)
		for i := range dst {
			dst[i] = 0
		}
		s.ids[line] = NonSecure
		s.valid[line] = false
		if s.parity != nil {
			s.parity[line] = 0
		}
	}
	return nil
}

// Claim is the dedicated secure instruction that assigns lines
// [from, to) to domain d, zeroing their payload first so nothing a
// previous owner wrote rides into the new domain. It is ResetSecure's
// dual: where ResetSecure returns lines to the normal world, Claim
// hands them to a named domain (the monitor uses it to carve resident
// KV-cache windows tagged with per-task ID bits, §IV-B / §VII
// "Multiple Secure Domains"). Only the secure world may issue it, and
// the target domain must fit the configured ID width.
func (s *Scratchpad) Claim(ctx tee.Context, from, to int, d DomainID) error {
	if err := ctx.RequireSecure(); err != nil {
		return err
	}
	if err := s.checkDomain(d); err != nil {
		return err
	}
	if from < 0 || to > s.cfg.Lines || from > to {
		return fmt.Errorf("spad: claim range [%d,%d) out of bounds", from, to)
	}
	for line := from; line < to; line++ {
		dst := s.lineSlice(line)
		for i := range dst {
			dst[i] = 0
		}
		s.ids[line] = d
		s.valid[line] = false
		if s.parity != nil {
			s.parity[line] = 0
		}
	}
	return nil
}

// Reset power-cycles the scratchpad for arena-style reuse: every
// payload byte is zeroed, every line returns to the non-secure domain
// and the never-written state, stored parity is cleared, and any fault
// injector is detached. This is strictly stronger than ResetSecure over
// the full range (which needs a secure context and leaves valid bits
// semantics to the ID rules) — a pooled SoC handed to the next
// experiment cell must be indistinguishable from a freshly built one,
// including to a tenant probing for LeftoverLocals residue.
func (s *Scratchpad) Reset() {
	clear(s.data)
	clear(s.ids)
	clear(s.valid)
	if s.parity != nil {
		clear(s.parity)
	}
	s.inj = nil
}

// CountDomain reports how many lines are tagged with domain d.
func (s *Scratchpad) CountDomain(d DomainID) int {
	n := 0
	for _, id := range s.ids {
		if id == d {
			n++
		}
	}
	return n
}
