package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	snpu "repro"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/workload"
)

// The byom ("bring your own model") workload is a closed loop with one
// caller over graph-IR documents: a committed internal/graph/testdata
// model or a seeded CNN/transformer variant of unique shape. Each
// model is lowered (graph.LowerBytes), compiled (npu.CompileCached;
// variants miss by construction) and measured (Program.Measurement) —
// the daemon's inline-graph path up to attestation, without execution.
// It stays cold on purpose: set-up warms nothing.

// irDir holds the committed graph-IR models, relative to the repo root.
const irDir = "internal/graph/testdata"

// committedEvery makes every n-th model a committed one.
const committedEvery = 4

type irDoc struct {
	name   string
	data   []byte
	nodes  int
	digest [32]byte // built-in constructor's workload.Digest
}

type byomBench struct {
	cfg       npu.Config
	seed      int64
	rng       *rand.Rand
	committed []irDoc
	order     []int // the current pass's order of committed models
	n         int   // models done over the whole run
	tl        tally

	// per-window accumulators
	steps  int
	nodes  int
	ops    int
	cache0 [2]uint64
}

func newBYOM(seed int64, root string) (bench, error) {
	paths, err := filepath.Glob(filepath.Join(root, irDir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no committed graph-IR models under %s", filepath.Join(root, irDir))
	}
	sort.Strings(paths)
	b := &byomBench{cfg: snpu.DefaultConfig().NPU, seed: seed, rng: rand.New(rand.NewSource(seed))}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		w, err := workload.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("committed model %s has no built-in constructor: %w", name, err)
		}
		m, err := graph.Parse(data)
		if err != nil {
			return nil, err
		}
		b.committed = append(b.committed, irDoc{name: name, data: data, nodes: len(m.Nodes), digest: workload.Digest(w)})
	}
	return b, nil
}

// passLen is how many models a pass holds: every committed model once,
// in a seeded order, with committedEvery-1 variants after each.
func (b *byomBench) passLen() int { return committedEvery * len(b.committed) }

// next returns the next model document and, for a committed model,
// the digest its lowering must reproduce.
func (b *byomBench) next() (irDoc, *[32]byte, error) {
	i := b.n
	b.n++
	if i%committedEvery == 0 {
		k := i % b.passLen() / committedEvery
		if k == 0 {
			b.order = b.rng.Perm(len(b.committed))
		}
		d := b.committed[b.order[k]]
		return d, &d.digest, nil
	}
	m := irVariant(b.seed, i)
	data, err := graph.Marshal(m)
	return irDoc{name: m.Name, data: data, nodes: len(m.Nodes)}, nil, err
}

func (b *byomBench) step(t *tracer) error {
	b.steps++
	t.beginOp()
	defer t.span("byom.model")()
	doc, want, err := b.next()
	if err != nil {
		return err
	}
	name := doc.name

	end := t.span("graph.LowerBytes")
	w, err := graph.LowerBytes(doc.data)
	end()
	if err != nil {
		b.tl.fail(1, "%s: %v", name, err)
		return nil
	}
	if want != nil && workload.Digest(w) != *want {
		b.tl.fail(1, "%s: lowered digest differs from the built-in constructor's", name)
		return nil
	}
	end = t.span("npu.CompileCached")
	prog, _, err := npu.CompileCached(w, b.cfg, 0, npu.DefaultLayout)
	end()
	if err != nil {
		b.tl.fail(1, "%s: compile: %v", name, err)
		return nil
	}
	end = t.span("npu.Program.Measurement")
	m := prog.Measurement()
	end()
	if m == ([32]byte{}) {
		b.tl.fail(1, "%s: empty measurement", name)
		return nil
	}
	b.nodes += doc.nodes
	b.ops += len(prog.Ops)
	b.tl.ok(1)
	return nil
}

func (b *byomBench) boundary() bool { return b.n%b.passLen() == 0 }

func (b *byomBench) reset() {
	b.steps, b.nodes, b.ops = 0, 0, 0
	b.cache0[0], b.cache0[1] = npu.ProgCacheCounters()
}

func (b *byomBench) stepsDone() int { return b.steps }

func (b *byomBench) opsDone() int { return b.steps }

// summary is empty: byom simulates nothing, and its throughput is
// ops_per_s.
func (b *byomBench) summary(time.Duration) metricSet { return metricSet{} }

func (b *byomBench) layers(elapsed time.Duration, t *tracer) metricSet {
	res := metricSet{}
	steps := float64(b.steps)
	res.set("graph.lower_ms", t.total("graph.LowerBytes")/steps, "ms/op")
	res.set("graph.nodes", float64(b.nodes)/steps, "count/op")
	res.set("npu.compile_ms", t.total("npu.CompileCached")/steps, "ms/op")
	res.set("npu.compile_ops", float64(b.ops)/steps, "count/op")
	res.set("npu.measure_ms", t.total("npu.Program.Measurement")/steps, "ms/op")
	ch, cm := npu.ProgCacheCounters()
	res.set("npu.progcache_hit_ratio", ratio(float64(ch-b.cache0[0]), float64(ch-b.cache0[0]+cm-b.cache0[1])), "ratio")
	return res
}

func (b *byomBench) tally() *tally { return &b.tl }
func (b *byomBench) close()        {}
