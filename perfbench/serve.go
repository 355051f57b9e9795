package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"time"

	snpu "repro"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serve workload drives the serving daemon's HTTP handler on a
// loopback listener with one client in a closed loop over episodes.
// An episode submits one seeded trace (POST /v1/submit per request,
// IDs assigned by the server), runs it (POST /v1/run), and fetches
// every result (GET /v1/result). Inside an episode arrivals are open
// loop in simulated time, at one of three offered rates that episodes
// rotate through.

// serveRates are the offered rates in requests per million simulated
// cycles: light, near the 4-core capacity (about 0.2), and overload.
var serveRates = []float64{0.05, 0.2, 0.8}

// nearSaturation indexes serveRates for sim_lat_p99_kcyc.
const nearSaturation = 1

// serveRound is the rate mix of one round of episodes (indices into
// serveRates): one light, three near-saturation, one overload. A run
// plays serveRounds rounds of distinct traces, and after the first
// pass a window may end at any round's end, so every window has the
// same mix. The near-saturation rate, whose p99 is reported, gets the
// most samples.
var serveRound = []int{0, 1, 1, 1, 2}

const serveRounds = 8

// serveTraceSet is every distinct trace of a run, in play order, with
// its rate.
func serveTraceSet(seed int64) (rates []float64, traces [][]serveReq) {
	n := make([]int, len(serveRates))
	for r := 0; r < serveRounds; r++ {
		for _, ri := range serveRound {
			rate := serveRates[ri]
			rates = append(rates, rate)
			traces = append(traces, serveTrace(subSeed(seed, fmt.Sprintf("serve-%g", rate), n[ri]), rate))
			n[ri]++
		}
	}
	return rates, traces
}

// simLatLimit is the latency limit, in cycles, on the sim p99 of the
// requests without a deadline that a rate must meet to count toward
// sim_max_rate_per_mcyc; such a request that fails misses the limit.
// Requests with a deadline carry their own limit, and their misses
// count against sim_goodput_ratio instead.
const simLatLimit = 300_000_000

var serveCores = []int{0, 1, 2, 3}

// serveTraceRun is one distinct trace and what its first run showed.
type serveTraceRun struct {
	rate float64
	reqs []serveReq
	ran  bool
	hash uint64 // decision hash with request IDs renumbered from 1
	// simulated outcome of the first run
	lat       []float64 // completed requests' arrival-to-finish cycles
	sloLat    []float64 // the same for requests without a deadline; +Inf if not completed
	completed int
	makespan  uint64
}

type serveBench struct {
	sys    *snpu.System
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	sealed map[string]string // "tenant/model" -> base64 sealed blob
	traces []*serveTraceRun
	next   int
	swept  bool // every trace has run once
	tl     tally

	// per-window accumulators
	steps, terminal int
	simCycles       float64
	hostLat         []float64 // ms, submit to result, per request
	ctr             counterSum
	cache0          [2]uint64
	sch             schedStats
	http5xx         int
}

// schedStats accumulates scheduler episode outcomes for the sched.*
// layer metrics.
type schedStats struct {
	preemptions, batched, completed, joins int
	flush                                  float64
	queueWait                              []float64 // cycles
}

func (s *schedStats) add(preemptions, batched, completed int, flush float64, log []string, results []sched.Result) {
	s.preemptions += preemptions
	s.batched += batched
	s.completed += completed
	s.flush += flush
	for _, l := range log {
		if decisionEvent(l) == "join" {
			s.joins++
		}
	}
	for _, r := range results {
		if r.Completed {
			s.queueWait = append(s.queueWait, float64(r.Start-r.Arrival))
		}
	}
}

func (s *schedStats) report(res metricSet, steps float64) {
	res.set("sched.preemptions", float64(s.preemptions)/steps, "count/op")
	res.set("sched.batched_ratio", ratio(float64(s.batched), float64(s.completed)), "ratio")
	res.set("sched.joins", float64(s.joins)/steps, "count/op")
	res.set("sched.flush_kcyc", s.flush/1e3/steps, "kcyc/op")
	res.set("sched.queue_wait_p99_kcyc", percentile(s.queueWait, 99)/1e3, "kcyc")
}

// decisionEvent extracts the event name from a rendered decision line
// ("@0000001234 core=0 admit    req=3 ...").
func decisionEvent(line string) string {
	var at, core, ev string
	fmt.Sscan(line, &at, &core, &ev)
	return ev
}

// reqIDs matches the request IDs a rendered decision log mentions.
var reqIDs = regexp.MustCompile(`req[= ]\d+`)

// decisionHash is sched.Report.DecisionHash over a rendered log, with
// request IDs renumbered so base becomes 1. The server assigns rising
// IDs, so this is what must repeat when a trace is run again.
func decisionHash(log []string, base int) uint64 {
	h := fnv.New64a()
	for _, l := range log {
		if base != 1 {
			l = reqIDs.ReplaceAllStringFunc(l, func(m string) string {
				id, _ := strconv.Atoi(m[4:])
				return m[:4] + strconv.Itoa(id-base+1)
			})
		}
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// tenantKey is tenant t's model-sealing key for a run seed.
func tenantKey(seed int64, t int) []byte {
	key := make([]byte, snpu.SealKeySize)
	for i := range key {
		key[i] = byte(subSeed(seed, "key", t*len(key)+i))
	}
	return key
}

func newServe(seed int64, _ string) (bench, error) {
	sys, err := serve.Boot()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(sys, serve.Config{Cores: serveCores})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveBench{
		sys:    sys,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		sealed: map[string]string{},
	}
	go func() { s.served <- s.hs.Serve(ln) }()

	for t := 0; t < serveTenants; t++ {
		key := tenantKey(seed, t)
		body := serve.KeyRequest{KeyID: fmt.Sprintf("t%d-key", t), KeyB64: base64.StdEncoding.EncodeToString(key)}
		if code, _, err := s.call(http.MethodPost, "/v1/keys", body); err != nil || code != http.StatusNoContent {
			s.close()
			return nil, fmt.Errorf("provisioning key: status %d: %v", code, err)
		}
		for _, m := range serveModels {
			blob, err := snpu.SealModel(key, []byte(fmt.Sprintf("%s weights of tenant %d", m, t)))
			if err != nil {
				s.close()
				return nil, err
			}
			s.sealed[fmt.Sprintf("%d/%s", t, m)] = base64.StdEncoding.EncodeToString(blob)
		}
	}
	// Warm the compile cache with the secure programs (the per-ID
	// layouts of non-secure requests cannot be warmed).
	cfg := snpu.DefaultConfig().NPU
	for _, name := range serveModels {
		w, err := workload.Lookup(name)
		if err == nil {
			_, _, err = npu.CompileCached(w, cfg, 0, npu.DefaultLayout)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	rates, traces := serveTraceSet(seed)
	for i, tr := range traces {
		s.traces = append(s.traces, &serveTraceRun{rate: rates[i], reqs: tr})
	}
	return s, nil
}

// call sends one JSON request and returns the status and body.
func (s *serveBench) call(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// wantStatus is the status GET /v1/result must give a terminal result.
func wantStatus(r sched.Result) (int, bool) {
	n := 0
	code := 0
	for _, c := range []struct {
		on   bool
		code int
	}{
		{r.Completed, http.StatusOK},
		{r.Shed, http.StatusTooManyRequests},
		{r.Dropped, http.StatusGatewayTimeout},
		{r.Aborted && r.Retryable, http.StatusServiceUnavailable},
		{r.Aborted && !r.Retryable, http.StatusGone},
		{r.Rejected, http.StatusBadRequest},
	} {
		if c.on {
			n++
			code = c.code
		}
	}
	return code, n == 1
}

func (s *serveBench) step(t *tracer) error {
	tr := s.traces[s.next]
	s.next = (s.next + 1) % len(s.traces)
	s.swept = s.swept || s.next == 0
	s.steps++
	t.beginOp()
	defer t.span("serve.episode")()
	before := readCounters(s.sys.Stats())

	n := len(tr.reqs)
	ids := make([]int, n)
	sent := make([]time.Time, n)
	bad := make([]string, n) // first gate failure per request
	for i, r := range tr.reqs {
		body := serve.SubmitRequest{
			Tenant: fmt.Sprintf("t%d", r.Tenant), Model: r.Model, Secure: r.Secure,
			Priority: r.Priority, Arrival: r.Arrival, Deadline: r.Deadline,
		}
		if r.Secure {
			body.KeyID = fmt.Sprintf("t%d-key", r.Tenant)
			body.SealedB64 = s.sealed[fmt.Sprintf("%d/%s", r.Tenant, r.Model)]
		}
		sent[i] = time.Now()
		end := t.span("serve.submit")
		code, out, err := s.call(http.MethodPost, "/v1/submit", body)
		end()
		var acc struct{ ID int }
		if err == nil {
			err = json.Unmarshal(out, &acc)
		}
		if err != nil || code != http.StatusAccepted || acc.ID <= 0 {
			s.count5xx(code)
			bad[i] = fmt.Sprintf("submit: status %d: %v", code, err)
			continue
		}
		ids[i] = acc.ID
	}

	end := t.span("serve.run")
	code, out, err := s.call(http.MethodPost, "/v1/run", nil)
	end()
	var rr serve.RunReport
	if err == nil {
		err = json.Unmarshal(out, &rr)
	}
	if err != nil || code != http.StatusOK {
		s.count5xx(code)
		s.tl.fail(n, "run: status %d: %v", code, err)
		return nil
	}
	byID := map[int][]sched.Result{}
	for _, r := range rr.Results {
		byID[r.ID] = append(byID[r.ID], r)
	}

	for i, id := range ids {
		if bad[i] != "" {
			continue
		}
		end := t.span("serve.result")
		code, out, err := s.call(http.MethodGet, fmt.Sprintf("/v1/result?id=%d", id), nil)
		end()
		s.hostLat = append(s.hostLat, float64(time.Since(sent[i]))/1e6)
		var rep serve.ResultReport
		if err == nil {
			err = json.Unmarshal(out, &rep)
		}
		got := byID[id]
		want, terminal := 0, false
		if len(got) == 1 {
			want, terminal = wantStatus(got[0])
		}
		// 504 is the API's answer for a deadline miss; any other 5xx is
		// a server error.
		serverErr := code >= 500 && !(code == http.StatusGatewayTimeout && terminal && got[0].Dropped)
		if serverErr {
			s.http5xx++
		}
		switch {
		case err != nil:
			bad[i] = fmt.Sprintf("result %d: %v", id, err)
		case !terminal:
			bad[i] = fmt.Sprintf("request %d: %d results, not exactly one terminal state", id, len(got))
		case serverErr:
			bad[i] = fmt.Sprintf("result %d: server error %d", id, code)
		case code != want || rep.Result.ID != id:
			bad[i] = fmt.Sprintf("result %d: status %d, want %d", id, code, want)
		}
	}

	hash := decisionHash(rr.DecisionLog, ids[0])
	failed, first := 0, ""
	for _, b := range bad {
		if b != "" {
			if failed++; first == "" {
				first = b
			}
		}
	}
	switch {
	case failed > 0:
		s.tl.fail(failed, "%s", first)
		s.tl.ok(n - failed)
	case tr.ran && hash != tr.hash:
		s.tl.fail(n, "repeat of a %.2f/Mcyc trace: decision hash %x, first run %x", tr.rate, hash, tr.hash)
	default:
		s.tl.ok(n)
		if !tr.ran {
			tr.ran, tr.hash, tr.makespan = true, hash, uint64(rr.Makespan)
			for i, id := range ids {
				r, lat := byID[id][0], math.Inf(1)
				if r.Completed {
					tr.completed++
					lat = float64(r.Finish - r.Arrival)
					tr.lat = append(tr.lat, lat)
				}
				if tr.reqs[i].Deadline == 0 {
					tr.sloLat = append(tr.sloLat, lat)
				}
			}
		}
	}
	s.terminal += len(rr.Results)
	s.simCycles += float64(rr.Makespan)
	s.sch.add(rr.Preemptions, rr.BatchedRuns, rr.Completed, float64(rr.FlushCycles), rr.DecisionLog, rr.Results)
	after := readCounters(s.sys.Stats())
	d := delta(before, after)
	t.record(d)
	s.ctr.add(d)
	return nil
}

func (s *serveBench) count5xx(code int) {
	if code >= 500 {
		s.http5xx++
	}
}

// boundary holds a window open until every trace has run once, which
// the sim metrics need; after that any round's end may end it.
func (s *serveBench) boundary() bool { return s.swept && s.next%len(serveRound) == 0 }

func (s *serveBench) reset() {
	s.steps, s.terminal, s.http5xx, s.simCycles = 0, 0, 0, 0
	s.hostLat = nil
	s.ctr = counterSum{}
	s.sch = schedStats{}
	s.cache0[0], s.cache0[1] = npu.ProgCacheCounters()
}

func (s *serveBench) stepsDone() int { return s.steps }

// simOutcome pools the first runs of the traces at one rate. The
// backlog grows when the episodes complete requests markedly slower
// than they arrive.
func (s *serveBench) simOutcome(rate float64) (lat, sloLat []float64, completed, submitted int, growing bool) {
	var arrivalSpan, busySpan float64
	for _, tr := range s.traces {
		if tr.rate != rate {
			continue
		}
		lat = append(lat, tr.lat...)
		sloLat = append(sloLat, tr.sloLat...)
		completed += tr.completed
		submitted += len(tr.reqs)
		first, last := tr.reqs[0].Arrival, tr.reqs[len(tr.reqs)-1].Arrival
		arrivalSpan += float64(last - first)
		busySpan += float64(max(tr.makespan, last) - first)
	}
	offered := float64(submitted) / arrivalSpan
	achieved := float64(completed) / busySpan
	return lat, sloLat, completed, submitted, achieved < backlogFactor*offered
}

// backlogFactor: a rate whose episodes complete requests at less than
// this share of the offered rate is building a backlog.
const backlogFactor = 0.75

func (s *serveBench) opsDone() int { return s.terminal }

func (s *serveBench) summary(elapsed time.Duration) metricSet {
	res := metricSet{}
	res.set("sim.mcyc_per_s", s.simCycles/1e6/elapsed.Seconds(), "Mcyc/s")
	res.set("serve.host_lat_p50_ms", median(s.hostLat), "ms")
	// A request's host latency is mostly its episode's run, so the
	// episodes are the independent samples.
	p, v, n := tail(s.hostLat, s.steps)
	res.set("serve.host_lat_tail_ms", v, "ms")
	fmt.Fprintf(stderrLog, "serve: serve.host_lat_tail_ms is p%g of %d requests in %d episodes\n", p, n, s.steps)

	var good, submitted int
	maxRate := 0.0
	for i, rate := range serveRates {
		lat, sloLat, completed, sub, growing := s.simOutcome(rate)
		good += completed
		submitted += sub
		p99, sloP99 := percentile(lat, 99), percentile(sloLat, 99)
		fmt.Fprintf(stderrLog, "serve: rate %g/Mcyc: sim p99 %.0f kcyc (no-deadline p99 %.0f kcyc), %d of %d completed, growing backlog %v\n",
			rate, p99/1e3, sloP99/1e3, completed, sub, growing)
		if i == nearSaturation {
			res.set("sched.sim_lat_p99_kcyc", p99/1e3, "kcyc")
		}
		if sloP99 <= simLatLimit && !growing {
			maxRate = rate
		}
	}
	res.set("sched.sim_goodput_ratio", ratio(float64(good), float64(submitted)), "ratio")
	res.set("sched.sim_max_rate_per_mcyc", maxRate, "1/Mcyc")
	return res
}

func (s *serveBench) layers(elapsed time.Duration, t *tracer) metricSet {
	res := metricSet{}
	steps := float64(s.steps)
	s.ctr.layerCounters(res, steps)
	s.sch.report(res, steps)
	res.set("serve.submit_ms_p50", median(t.durations("serve.submit")), "ms")
	res.set("serve.run_ms_p50", median(t.durations("serve.run")), "ms")
	res.set("serve.result_ms_p50", median(t.durations("serve.result")), "ms")
	res.set("serve.http_5xx", float64(s.http5xx), "count")
	ch, cm := npu.ProgCacheCounters()
	res.set("npu.progcache_hit_ratio", ratio(float64(ch-s.cache0[0]), float64(ch-s.cache0[0]+cm-s.cache0[1])), "ratio")
	return res
}

func (s *serveBench) tally() *tally { return &s.tl }

// close stops the listener and waits for the serving goroutine.
func (s *serveBench) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // best effort: the process is ending or re-setting up
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderrLog, "serve: listener: %v\n", err)
	}
}
