// Package guarder implements the paper's NPU Guarder (§IV-A, §V): a
// lightweight memory translation and checking unit integrated in the
// NPU core in front of the DMA engine.
//
// It replaces the IOMMU with two small register files that exploit the
// NPU's memory access pattern (limited tiles of input/weight/output
// data per calculation, with stable VA→PA mappings per chunk):
//
//   - Checking registers: a few rarely-modified entries recording the
//     access authority of contiguous physical regions (e.g., "the
//     TrustZone secure memory area is off limits to normal tasks").
//   - Translation registers: tile-granular VA-range → PA-range
//     mappings, reprogrammed (cheaply) before a calculation if needed.
//
// Translation and checking happen once per DMA *request* rather than
// once per 64-byte memory packet, which is both the zero-stall timing
// model (Fig. 13(a)) and the ~5% request-count/energy model
// (Fig. 13(b)). The register files are programmable only through a
// secure instruction, i.e., holders of a secure tee.Context — in the
// full system, the NPU Monitor's context setter.
package guarder

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tee"
	"repro/internal/xlate"
)

// Sizes of the register files. The paper sizes translation registers
// "in the tile level (e.g., input tile and output tile)"; a handful of
// entries covers input/weight/output/accumulator chunks per task.
const (
	DefaultCheckRegs = 4
	DefaultTransRegs = 16
)

// ErrNoTranslation is returned when no translation register covers a
// requested virtual range.
var ErrNoTranslation = errors.New("guarder: no translation register covers request")

// ErrDenied is returned when the checking registers deny an access.
var ErrDenied = errors.New("guarder: access denied by checking register")

// CheckReg grants World access with Perm to the physical range
// [Base, Base+Size). Anything not covered by a matching checking
// register is denied — the Guarder fails closed.
type CheckReg struct {
	Base  mem.PhysAddr
	Size  uint64
	Perm  mem.Perm
	World mem.World
	Valid bool
}

func (c CheckReg) covers(pa mem.PhysAddr, size uint64) bool {
	return c.Valid && pa >= c.Base && pa+mem.PhysAddr(size) <= c.Base+mem.PhysAddr(c.Size)
}

// TransReg maps the virtual range [VBase, VBase+Size) onto the
// physical range starting at PBase.
type TransReg struct {
	VBase mem.VirtAddr
	PBase mem.PhysAddr
	Size  uint64
	Valid bool
}

func (t TransReg) covers(va mem.VirtAddr, size uint64) bool {
	return t.Valid && va >= t.VBase && uint64(va)+size <= uint64(t.VBase)+t.Size
}

// Guarder is the per-NPU translation/checking unit.
type Guarder struct {
	checks []CheckReg
	trans  []TransReg
	stats  *sim.Stats
	// ProgramWrites counts secure register writes, an input to the
	// hardware-cost and reconfiguration-overhead analysis.
	ProgramWrites uint64
}

// Reset clears both register files and the write counter — the
// power-on state of the per-core checking/translation hardware. A
// pooled System recycles its Guarders in place (they are wired into
// each core's DMA path at construction), so reset must leave no
// window from the previous tenant programmed.
func (g *Guarder) Reset() {
	clear(g.checks)
	clear(g.trans)
	g.ProgramWrites = 0
}

// New builds a Guarder with the given register-file sizes.
func New(checkRegs, transRegs int, stats *sim.Stats) *Guarder {
	return &Guarder{
		checks: make([]CheckReg, checkRegs),
		trans:  make([]TransReg, transRegs),
		stats:  stats,
	}
}

// NewDefault builds a Guarder with the default register-file sizes.
func NewDefault(stats *sim.Stats) *Guarder {
	return New(DefaultCheckRegs, DefaultTransRegs, stats)
}

// Name implements xlate.Translator.
func (g *Guarder) Name() string { return "guarder" }

// SetCheckReg programs checking register idx. Checking registers
// define authority over physical memory and may only be written via a
// secure instruction.
func (g *Guarder) SetCheckReg(ctx tee.Context, idx int, reg CheckReg) error {
	if err := ctx.RequireSecure(); err != nil {
		return err
	}
	if idx < 0 || idx >= len(g.checks) {
		return fmt.Errorf("guarder: checking register %d out of range (%d regs)", idx, len(g.checks))
	}
	g.checks[idx] = reg
	g.ProgramWrites++
	return nil
}

// SetTransReg programs translation register idx (secure instruction).
func (g *Guarder) SetTransReg(ctx tee.Context, idx int, reg TransReg) error {
	if err := ctx.RequireSecure(); err != nil {
		return err
	}
	if idx < 0 || idx >= len(g.trans) {
		return fmt.Errorf("guarder: translation register %d out of range (%d regs)", idx, len(g.trans))
	}
	g.trans[idx] = reg
	g.ProgramWrites++
	return nil
}

// ClearTask invalidates all translation registers (secure instruction;
// used by the monitor between tasks). Checking registers persist: they
// encode platform policy, not per-task state.
func (g *Guarder) ClearTask(ctx tee.Context) error {
	if err := ctx.RequireSecure(); err != nil {
		return err
	}
	for i := range g.trans {
		g.trans[i].Valid = false
	}
	g.ProgramWrites++
	return nil
}

// CheckRegs returns a copy of the checking register file.
func (g *Guarder) CheckRegs() []CheckReg {
	out := make([]CheckReg, len(g.checks))
	copy(out, g.checks)
	return out
}

// TransRegs returns a copy of the translation register file.
func (g *Guarder) TransRegs() []TransReg {
	out := make([]TransReg, len(g.trans))
	copy(out, g.trans)
	return out
}

// OnContextSwitch implements xlate.Translator. The Guarder holds no
// cached translations — the monitor reprograms the registers as part
// of the switch — so there is nothing to flush and no ping-pong cost.
func (g *Guarder) OnContextSwitch(taskID int) {}

// Translate implements xlate.Translator: one range lookup in the
// translation registers, one authority check in the checking
// registers, zero stall cycles. The request-level (not packet-level)
// counting is the paper's energy argument.
func (g *Guarder) Translate(req xlate.Request, at sim.Cycle) (xlate.Result, error) {
	if req.Bytes == 0 {
		return xlate.Result{}, fmt.Errorf("guarder: empty request")
	}
	g.stats.IncID(sim.IDGuarderChecks)
	g.stats.IncID(sim.IDTranslations)
	var pa mem.PhysAddr
	found := false
	for _, tr := range g.trans {
		if tr.covers(req.VA, req.Bytes) {
			pa = tr.PBase + mem.PhysAddr(req.VA-tr.VBase)
			found = true
			break
		}
	}
	if !found {
		g.stats.IncID(sim.IDGuarderDenied)
		return xlate.Result{}, fmt.Errorf("%w: va %#x +%d", ErrNoTranslation, uint64(req.VA), req.Bytes)
	}
	for _, cr := range g.checks {
		if cr.covers(pa, req.Bytes) && cr.World == req.World && cr.Perm.Has(req.Need) {
			return xlate.Result{PA: pa}, nil
		}
	}
	g.stats.IncID(sim.IDGuarderDenied)
	return xlate.Result{}, fmt.Errorf("%w: pa %#x +%d need %s world %s",
		ErrDenied, uint64(pa), req.Bytes, req.Need, req.World)
}
