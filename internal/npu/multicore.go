package npu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spad"
	"repro/internal/tee"
	"repro/internal/xlate"
)

// NPU is the full accelerator: all cores, the NoC mesh connecting
// them, and the shared DRAM channel. Translators are per-core and
// swappable so experiments can compare access-control mechanisms.
type NPU struct {
	cfg     Config
	cores   []*Core
	mesh    *noc.Mesh
	channel *sim.Resource
	phys    *mem.Physical
	stats   *sim.Stats
	l2      *cache.L2 // non-nil when cfg.UseL2
}

// New assembles the NPU. Each core gets its own instance from
// makeXlate (an IOMMU or Guarder is per-NPU-core hardware).
func New(cfg Config, phys *mem.Physical, stats *sim.Stats, makeXlate func(core int) xlate.Translator) (*NPU, error) {
	if cfg.Tiles <= 0 {
		return nil, fmt.Errorf("npu: no tiles configured")
	}
	if cfg.MeshW*cfg.MeshH < cfg.Tiles {
		return nil, fmt.Errorf("npu: %dx%d mesh cannot host %d tiles", cfg.MeshW, cfg.MeshH, cfg.Tiles)
	}
	mesh, err := noc.NewMesh(noc.DefaultConfig(cfg.MeshW, cfg.MeshH, cfg.Peephole), stats)
	if err != nil {
		return nil, err
	}
	n := &NPU{
		cfg:     cfg,
		mesh:    mesh,
		channel: sim.NewResource("dram-channel"),
		phys:    phys,
		stats:   stats,
	}
	if cfg.UseL2 {
		l2, err := cache.New(cache.DefaultConfig())
		if err != nil {
			return nil, err
		}
		n.l2 = l2
	}
	for i := 0; i < cfg.Tiles; i++ {
		coord := noc.Coord{X: i % cfg.MeshW, Y: i / cfg.MeshW}
		var xl xlate.Translator
		if makeXlate != nil {
			xl = makeXlate(i)
		} else {
			xl = xlate.NewIdentity(stats)
		}
		core, err := NewCore(i, coord, cfg, n.channel, phys, xl, mesh, stats)
		if err != nil {
			return nil, err
		}
		if n.l2 != nil {
			core.DMA().AttachL2(n.l2)
		}
		n.cores = append(n.cores, core)
	}
	// The mesh authenticates against the cores' live ID states.
	mesh.IDSource = func(c noc.Coord) spad.DomainID {
		for _, core := range n.cores {
			if core.coord == c {
				return core.domain
			}
		}
		return spad.NonSecure
	}
	return n, nil
}

// Config returns the NPU configuration.
func (n *NPU) Config() Config { return n.cfg }

// AttachInjector arms the whole SoC with one fault injector: the mesh
// and every tile (scratchpads, DMA engines, translators).
func (n *NPU) AttachInjector(inj *fault.Injector) {
	n.mesh.AttachInjector(inj)
	for _, c := range n.cores {
		c.AttachInjector(inj)
	}
}

// AttachObserver wires the whole accelerator into an observability
// layer: the NoC mesh and every tile (DMA engines, translators,
// compute histograms). Nil detaches.
func (n *NPU) AttachObserver(o *obs.Observer) {
	n.mesh.AttachObserver(o)
	for _, c := range n.cores {
		c.AttachObserver(o)
	}
}

// Cores returns the core list.
func (n *NPU) Cores() []*Core { return n.cores }

// Core returns core i.
func (n *NPU) Core(i int) (*Core, error) {
	if i < 0 || i >= len(n.cores) {
		return nil, fmt.Errorf("npu: core %d out of range (%d cores)", i, len(n.cores))
	}
	return n.cores[i], nil
}

// validateCores rejects duplicate or out-of-range core IDs up front,
// before any run claims channel or pipeline resources. A duplicate
// would silently double-claim one core's pipeline (two executors
// interleaving on the same cursor), producing plausible-looking but
// meaningless cycle counts.
func (n *NPU) validateCores(coreIDs []int) error {
	seen := make(map[int]bool, len(coreIDs))
	for _, ci := range coreIDs {
		if ci < 0 || ci >= len(n.cores) {
			return fmt.Errorf("npu: core %d out of range (%d cores)", ci, len(n.cores))
		}
		if seen[ci] {
			return fmt.Errorf("npu: core %d listed twice", ci)
		}
		seen[ci] = true
	}
	return nil
}

// Mesh returns the NoC fabric.
func (n *NPU) Mesh() *noc.Mesh { return n.mesh }

// Channel returns the shared DRAM channel resource.
func (n *NPU) Channel() *sim.Resource { return n.channel }

// ResetTiming returns all timing resources to idle — the shared DRAM
// channel and every core's pipeline — so independent experiment runs
// on one NPU instance do not contend with history.
func (n *NPU) ResetTiming() {
	n.channel.Reset()
	for _, c := range n.cores {
		c.ResetPipeline()
	}
	if n.l2 != nil {
		n.l2.Reset()
	}
}

// L2 returns the shared cache (nil unless Config.UseL2).
func (n *NPU) L2() *cache.L2 { return n.l2 }

// Reset power-cycles the whole accelerator for arena-style reuse:
// timing resources (DRAM channel, pipelines, L2), every tile's
// security and scratchpad state, and the mesh's locks, inboxes, and
// fault state. After Reset the NPU is observably identical to a
// freshly assembled one with the same configuration — the pooled
// SoC contract the fresh-vs-pooled differential pins.
func (n *NPU) Reset() {
	n.channel.Reset()
	if n.l2 != nil {
		n.l2.Reset()
	}
	for _, c := range n.cores {
		c.Reset()
	}
	n.mesh.Reset()
}

// SetCoreDomains programs a set of cores into a domain via the secure
// instruction path.
func (n *NPU) SetCoreDomains(ctx tee.Context, cores []int, d spad.DomainID) error {
	for _, i := range cores {
		c, err := n.Core(i)
		if err != nil {
			return err
		}
		if err := c.SetDomain(ctx, d); err != nil {
			return err
		}
	}
	return nil
}

// TransferMode selects how model-parallel cores exchange activation
// slices (Fig. 16/17).
type TransferMode uint8

const (
	// TransferNoC moves activations core-to-core over the mesh.
	TransferNoC TransferMode = iota
	// TransferSharedMemory is the "software NoC": store to a shared
	// DRAM buffer, reload on each consumer core.
	TransferSharedMemory
)

func (m TransferMode) String() string {
	if m == TransferNoC {
		return "noc"
	}
	return "shared-memory"
}
