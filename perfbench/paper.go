package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The paper workload reruns the cells of the paper's Fig. 13 (access
// control: TrustZone IOMMU against the NPU Guarder, as a contended
// pair of cores sharing the unit) and Fig. 17 (peephole NoC against the
// software NoC, model-parallel on a 2x2 core block). It is a closed
// loop with one caller: cells run back to back in a seeded order, on a
// warm compile cache and SoC pool, and every cell's simulated cycles
// must equal the reference table recorded from the simulator.

// fig13Mechs are the Fig. 13 access-control cells the workload runs.
var fig13Mechs = []experiments.Mechanism{
	{Name: "none"},
	{Name: "iotlb-32", IOTLBEntries: 32},
	{Name: "guarder", Guarder: true},
}

// fig17Methods are the Fig. 17 transfer methods; the first is the
// baseline the software NoC is compared against.
var fig17Methods = []struct {
	name     string
	peephole bool
	mode     npu.TransferMode
}{
	{"unauthorized-noc", false, npu.TransferNoC},
	{"peephole-noc", true, npu.TransferNoC},
	{"software-noc", false, npu.TransferSharedMemory},
}

// fig17Cores is the 2x2 block on the 5-wide mesh; fig17ShmVA is the
// software NoC's shared-memory bounce buffer (both as in Fig. 17).
var fig17Cores = []int{0, 1, 5, 6}

const fig17ShmVA = mem.VirtAddr(0x8100_0000)

// cell is one (figure, model, mechanism) experiment.
type cell struct {
	fig    int // 13 or 17
	model  workload.Workload
	method int // index into fig13Mechs or fig17Methods
}

func (c cell) key() string {
	if c.fig == 13 {
		return fmt.Sprintf("fig13/%s/%s", c.model.Name, fig13Mechs[c.method].Name)
	}
	return fmt.Sprintf("fig17/%s/%s", c.model.Name, fig17Methods[c.method].name)
}

type paper struct {
	cfg    npu.Config
	cells  []cell
	rng    *rand.Rand
	order  []int // the current pass's cell order
	pos    int   // cells of the current pass done
	cycles map[string]sim.Cycle
	tl     tally

	// per-window accumulators
	steps     int
	simCycles float64
	ctr       counterSum
	transfer  float64
	pool0     [2]uint64
	cache0    [2]uint64
}

func newPaper(seed int64, _ string) (bench, error) {
	p := &paper{
		cfg:    npu.DefaultConfig(),
		rng:    rand.New(rand.NewSource(seed)),
		cycles: map[string]sim.Cycle{},
	}
	for _, m := range workload.All() {
		for i := range fig13Mechs {
			p.cells = append(p.cells, cell{13, m, i})
		}
		for i := range fig17Methods {
			p.cells = append(p.cells, cell{17, m, i})
		}
	}
	// Warm the compile cache and the SoC pool: both Fig. 13 layouts
	// per model, and one model-parallel run per model and NoC config
	// (which compiles the per-core slices and pools both configs).
	for _, m := range workload.All() {
		for _, layout := range []npu.Layout{npu.DefaultLayout, experiments.CompanionLayout} {
			if _, _, err := npu.CompileCached(m, p.cfg, 0, layout); err != nil {
				return nil, err
			}
		}
		for _, peephole := range []bool{false, true} {
			cfg := p.cfg
			cfg.Peephole = peephole
			if _, _, err := runParallel(m, cfg, peephole, npu.TransferNoC, nil); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// runParallel runs one Fig. 17 cell on a pooled SoC and returns its
// result and counter snapshot.
func runParallel(m workload.Workload, cfg npu.Config, peephole bool, mode npu.TransferMode, t *tracer) (npu.ModelParallelResult, map[string]int64, error) {
	end := t.span("experiments.AcquireSoC")
	soc, err := experiments.AcquireSoC(cfg)
	end()
	if err != nil {
		return npu.ModelParallelResult{}, nil, err
	}
	defer soc.Release()
	if peephole {
		// Secure the block so its members authenticate mutually.
		if err := soc.NPU.SetCoreDomains(soc.Machine.SecureContext(), fig17Cores, 1); err != nil {
			return npu.ModelParallelResult{}, nil, err
		}
	}
	end = t.span("npu.RunModelParallel")
	r, err := soc.NPU.RunModelParallel(m, fig17Cores, mode, fig17ShmVA, nil)
	end()
	if err != nil {
		return npu.ModelParallelResult{}, nil, err
	}
	return r, readCounters(soc.Stats), nil
}

func (p *paper) step(t *tracer) error {
	if p.pos == 0 {
		p.order = p.rng.Perm(len(p.cells))
	}
	c := p.cells[p.order[p.pos]]
	p.pos = (p.pos + 1) % len(p.cells)
	p.steps++
	t.beginOp()
	defer t.span("paper.cell")()

	var cycles sim.Cycle
	var snap map[string]int64
	var err error
	if c.fig == 13 {
		end := t.span("experiments.RunContended")
		cycles, snap, err = experiments.RunContended(c.model, fig13Mechs[c.method], p.cfg)
		end()
	} else {
		method := fig17Methods[c.method]
		cfg := p.cfg
		cfg.Peephole = method.peephole
		var r npu.ModelParallelResult
		r, snap, err = runParallel(c.model, cfg, method.peephole, method.mode, t)
		cycles = r.TotalCycles
		p.transfer += float64(r.TransferCycles)
	}
	if err != nil {
		p.tl.fail(1, "%s: %v", c.key(), err)
		return nil
	}
	t.record(snap)
	p.ctr.add(snap)
	p.simCycles += float64(cycles)
	if want := reference[c.key()]; cycles != want {
		p.tl.fail(1, "%s: %d cycles, reference %d", c.key(), cycles, want)
		return nil
	}
	p.cycles[c.key()] = cycles
	p.tl.ok(1)
	return nil
}

func (p *paper) boundary() bool { return p.pos == 0 }

func (p *paper) reset() {
	p.steps, p.simCycles, p.transfer = 0, 0, 0
	p.ctr = counterSum{}
	p.pool0[0], p.pool0[1] = experiments.PoolCounters()
	p.cache0[0], p.cache0[1] = npu.ProgCacheCounters()
}

func (p *paper) stepsDone() int { return p.steps }

// slowdowns are the geomean Fig. 13 IOTLB-32 and Fig. 17 software-NoC
// slowdowns over the models, from the checked cells. They are
// simulated, so they repeat exactly for any seed.
func (p *paper) slowdowns() (iotlb, softNoC float64) {
	var norm13, norm17 []float64
	for _, m := range workload.All() {
		none, iotlb := p.cycles["fig13/"+m.Name+"/none"], p.cycles["fig13/"+m.Name+"/iotlb-32"]
		base, soft := p.cycles["fig17/"+m.Name+"/unauthorized-noc"], p.cycles["fig17/"+m.Name+"/software-noc"]
		if none == 0 || iotlb == 0 || base == 0 || soft == 0 {
			return 0, 0 // a cell failed its gate; the run already fails
		}
		norm13 = append(norm13, float64(none)/float64(iotlb))
		norm17 = append(norm17, float64(soft)/float64(base))
	}
	return (1 - geomean(norm13)) * 100, (geomean(norm17) - 1) * 100
}

func (p *paper) opsDone() int { return p.steps }

func (p *paper) summary(elapsed time.Duration) metricSet {
	res := metricSet{}
	iotlb, soft := p.slowdowns()
	res.set("sim.mcyc_per_s", p.simCycles/1e6/elapsed.Seconds(), "Mcyc/s")
	res.set("iommu.iotlb_slowdown_pct", iotlb, "%")
	res.set("noc.softnoc_slowdown_pct", soft, "%")
	return res
}

func (p *paper) layers(elapsed time.Duration, t *tracer) metricSet {
	res := metricSet{}
	steps := float64(p.steps)
	p.ctr.layerCounters(res, steps)
	res.set("noc.transfer_kcyc", p.transfer/1e3/steps, "kcyc/op")
	res.set("npu.exec_ms", (t.total("experiments.RunContended")+t.total("npu.RunModelParallel"))/steps, "ms/op")
	ph, pm := experiments.PoolCounters()
	res.set("experiments.pool_hit_ratio", ratio(float64(ph-p.pool0[0]), float64(ph-p.pool0[0]+pm-p.pool0[1])), "ratio")
	ch, cm := npu.ProgCacheCounters()
	res.set("npu.progcache_hit_ratio", ratio(float64(ch-p.cache0[0]), float64(ch-p.cache0[0]+cm-p.cache0[1])), "ratio")
	return res
}

func (p *paper) tally() *tally { return &p.tl }
func (p *paper) close()        {}
