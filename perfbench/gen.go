package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/workload"
)

// The benchmark makes every input from its seed with these generators:
// serving traces, decode traces and graph-IR documents. They use only
// math/rand with an explicit source, so the same seed gives
// byte-identical inputs on any machine and at any GOMAXPROCS.

// subSeed derives an independent stream seed for input number i of a
// kind from the run seed.
func subSeed(seed int64, kind string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, kind, i)
	return int64(h.Sum64() >> 1)
}

// serveModels is the serving mix (the daemon's cheaper built-ins).
var serveModels = []string{"mobilenet", "yololite", "alexnet"}

const (
	serveTenants    = 3
	serveTraceLen   = 36
	serveDeadlineIn = 5 // every n-th request carries a deadline
)

// serveReq is one request of a serving trace, before the server
// assigns its ID.
type serveReq struct {
	Tenant   int    `json:"tenant"`
	Model    string `json:"model"`
	Secure   bool   `json:"secure"`
	Priority int    `json:"priority"`
	Arrival  uint64 `json:"arrival"`
	Deadline uint64 `json:"deadline,omitempty"`
}

// serveTrace is one open-loop serving trace at rate requests per
// million simulated cycles: three tenants, a mobilenet/yololite/alexnet
// mix, half of the requests secure, three priorities, and a finish
// deadline on every fifth request. Arrivals are Poisson, stratified:
// every trace draws the same set of inter-arrival gaps (the
// exponential distribution's quantiles) and the same balanced request
// mix, in a seeded order. Traces then differ in burstiness and
// interleaving, not in total load, which keeps the pooled tail
// latencies of a handful of traces comparable across seeds.
func serveTrace(seed int64, rate float64) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	n := serveTraceLen
	gaps := make([]float64, n)
	for j := range gaps {
		gaps[j] = -math.Log(1-(float64(j)+0.5)/float64(n)) * 1e6 / rate
	}
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	balanced := func(k int) []int {
		xs := make([]int, n)
		for j := range xs {
			xs[j] = j % k
		}
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	tenants, models, prios, secure := balanced(serveTenants), balanced(len(serveModels)), balanced(3), balanced(2)
	reqs := make([]serveReq, 0, n)
	var at float64
	for i := 0; i < n; i++ {
		at += gaps[i]
		r := serveReq{
			Tenant:   tenants[i],
			Model:    serveModels[models[i]],
			Secure:   secure[i] == 0,
			Priority: prios[i],
			Arrival:  uint64(at),
		}
		if (i+1)%serveDeadlineIn == 0 {
			r.Deadline = r.Arrival + serveDeadline
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// serveDeadline is a deadline request's allowance after its arrival, in
// cycles: enough for an alexnet run that is preempted once.
const serveDeadline = 100_000_000

// decodeReq is one request of a decode trace: a secure decode session
// of its tenant's spec, or (Preempt) a high-priority secure mobilenet
// inference that preempts a running batch.
type decodeReq struct {
	Tenant   int    `json:"tenant"`
	Preempt  bool   `json:"preempt,omitempty"`
	Priority int    `json:"priority"`
	Arrival  uint64 `json:"arrival"`
}

const (
	decodeTenants  = 2
	decodeSessions = 12
	decodeGap      = 150_000    // mean session inter-arrival, cycles
	preemptors     = 2          // per trace
	preemptEvery   = 15_000_000 // preemptor period, cycles
)

// decodeSpecFor is tenant t's decode geometry: large enough that token
// passes dominate the episode, distinct per tenant so batches never
// mix specs.
func decodeSpecFor(t int) workload.DecodeSpec {
	return workload.DecodeSpec{Layers: 2, Hidden: 128, Heads: 4, FFN: 256, Prompt: 16 + 8*t, Steps: 24 + 8*t}
}

// decodeTrace is one open-loop decode trace: decodeSessions sessions,
// split evenly between the tenants, with exponential inter-arrivals at
// two priorities, plus a priority-6 secure preemptor every
// preemptEvery cycles from a seeded phase, preemptors times in all.
func decodeTrace(seed int64) []decodeReq {
	rng := rand.New(rand.NewSource(seed))
	tenants := rng.Perm(decodeSessions)
	var reqs []decodeReq
	var at float64
	for i := 0; i < decodeSessions; i++ {
		at += rng.ExpFloat64() * decodeGap
		reqs = append(reqs, decodeReq{Tenant: tenants[i] % decodeTenants, Priority: rng.Intn(2), Arrival: uint64(at)})
	}
	phase := uint64(rng.Int63n(preemptEvery))
	for k := 0; k < preemptors; k++ {
		reqs = append(reqs, decodeReq{Tenant: k % decodeTenants, Preempt: true, Priority: 6, Arrival: phase + uint64(k)*preemptEvery})
	}
	return reqs
}

// irVariant is the i-th seeded graph-IR model: a CNN or a transformer
// whose classifier width is unique to i, so it never hits the compile
// cache. Every variant validates.
func irVariant(seed int64, i int) *graph.Model {
	rng := rand.New(rand.NewSource(subSeed(seed, "ir", i)))
	name := fmt.Sprintf("byom-%d-%d", seed&0xffff, i)
	if rng.Intn(2) == 0 {
		return cnnVariant(rng, name, i)
	}
	return transformerVariant(rng, name, i)
}

// cnnVariant stacks conv/pool stages on an image and ends in a
// classifier.
func cnnVariant(rng *rand.Rand, name string, i int) *graph.Model {
	size := 32 + 4*rng.Intn(8)
	m := &graph.Model{
		IR: graph.IRVersion, Name: name,
		Inputs: []graph.Tensor{{Name: "image", Shape: []int{1, 3, size, size}}},
	}
	in, ch := "image", 16+8*rng.Intn(4)
	stages := 2 + rng.Intn(3)
	for s := 0; s < stages; s++ {
		conv := fmt.Sprintf("conv%d", s)
		m.Nodes = append(m.Nodes, graph.Node{Name: conv, OpKind: graph.OpConv, Inputs: []string{in},
			Attrs: graph.Attrs{Filters: ch, Kernel: 3, Stride: 1, Pad: 1}})
		in = conv
		if rng.Intn(2) == 0 {
			dw := fmt.Sprintf("dw%d", s)
			m.Nodes = append(m.Nodes, graph.Node{Name: dw, OpKind: graph.OpDWConv, Inputs: []string{in},
				Attrs: graph.Attrs{Kernel: 3, Stride: 1, Pad: 1}})
			in = dw
		}
		pool := fmt.Sprintf("pool%d", s)
		m.Nodes = append(m.Nodes, graph.Node{Name: pool, OpKind: graph.OpPool, Inputs: []string{in},
			Attrs: graph.Attrs{Kernel: 2, Stride: 2, Mode: "max"}})
		in, ch = pool, ch*2
	}
	m.Nodes = append(m.Nodes, graph.Node{Name: "fc", OpKind: graph.OpFC, Inputs: []string{in}, Attrs: graph.Attrs{Out: classes(i)}})
	m.Outputs = []string{"fc"}
	return m
}

// classes is variant i's classifier width, unique per variant.
func classes(i int) int { return 16 + i }

// transformerVariant stacks attention + feed-forward blocks over a
// token sequence and ends in a classifier.
func transformerVariant(rng *rand.Rand, name string, i int) *graph.Model {
	heads := 2 << rng.Intn(3)
	hidden := heads * (16 << rng.Intn(2))
	seq := 16 + rng.Intn(48)
	m := &graph.Model{
		IR: graph.IRVersion, Name: name,
		Inputs: []graph.Tensor{{Name: "tokens", Shape: []int{seq, hidden}}},
	}
	in := "tokens"
	blocks := 1 + rng.Intn(3)
	for b := 0; b < blocks; b++ {
		attn, up, act, down := fmt.Sprintf("attn%d", b), fmt.Sprintf("ffn%d_up", b), fmt.Sprintf("ffn%d_act", b), fmt.Sprintf("ffn%d_down", b)
		m.Nodes = append(m.Nodes,
			graph.Node{Name: attn, OpKind: graph.OpAttention, Inputs: []string{in}, Attrs: graph.Attrs{Heads: heads}},
			graph.Node{Name: up, OpKind: graph.OpGemm, Inputs: []string{attn}, Attrs: graph.Attrs{Out: 4 * hidden}},
			graph.Node{Name: act, OpKind: graph.OpRelu, Inputs: []string{up}},
			graph.Node{Name: down, OpKind: graph.OpGemm, Inputs: []string{act}, Attrs: graph.Attrs{Out: hidden}},
		)
		in = down
	}
	m.Nodes = append(m.Nodes, graph.Node{Name: "head", OpKind: graph.OpGemm, Inputs: []string{in}, Attrs: graph.Attrs{Out: classes(i)}})
	m.Outputs = []string{"head"}
	return m
}
