package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/metrics"
	"dpuv2/internal/sched"
	"dpuv2/internal/serve"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer a workload bypasses reports 0: it did no work there.
var perLayer = []struct{ name, unit string }{
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.transport_us", "us"},
	{"dag.read_us", "us"},
	{"dag.read_allocs", "count"},
	{"dag.fingerprint_us", "us"},
	{"sched.submit_us", "us"},
	{"sched.linger_us", "us"},
	{"sched.queue_wait_us", "us"},
	{"sched.execute_us", "us"},
	{"sched.batch_size_mean", "count"},
	{"sched.rejected", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.evictions", "count"},
	{"engine.compiles_per_new_fp", "ratio"},
	{"gateway.self_us", "us"},
	{"gateway.hedge_ratio", "ratio"},
	{"gateway.hedge_win_ratio", "ratio"},
	{"gateway.failovers", "count"},
	{"compiler.compile_ms", "ms"},
	{"compiler.cycles", "count"},
	{"compiler.copied_words", "count"},
	{"compiler.spill_stores", "count"},
	{"compiler.nops", "count"},
	{"verify.verify_ms", "ms"},
	{"artifact.encode_ms", "ms"},
	{"artifact.decode_ms", "ms"},
	{"sim.cycle_ns_per_op", "ns"},
	{"sim.func_ns_per_op", "ns"},
	{"energy.estimate_us", "us"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"loadgen.late_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// setLayers reports every per-layer metric, taking values from m and 0
// for the layers the workload bypasses.
func setLayers(rep *report, m map[string]float64) error {
	for _, l := range perLayer {
		rep.set(l.name, l.unit, m[l.name])
		delete(m, l.name)
	}
	for name := range m {
		return fmt.Errorf("per-layer metric %q is not listed", name)
	}
	return nil
}

// handlerSpans wraps a handler and records each request's handler time:
// by the sequence number the load generator stamps (seqHeader), and as
// the most recent call, which the one-at-a-time replays read.
type handlerSpans struct {
	h    http.Handler
	durs []atomic.Int64
	last atomic.Int64
}

func newHandlerSpans(h http.Handler) *handlerSpans {
	return &handlerSpans{h: h, durs: make([]atomic.Int64, 1<<16)}
}

func (s *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.h.ServeHTTP(w, r)
	d := int64(time.Since(t0))
	s.last.Store(d)
	if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && seq >= 0 && seq < len(s.durs) {
		s.durs[seq].Store(d)
	}
}

// histMean is the exact mean of the observations between two snapshots
// of one histogram, converted from ns by div.
func histMean(a, b metrics.Snapshot, div float64) float64 {
	n := b.Count - a.Count
	if n == 0 {
		return 0
	}
	return float64(b.Sum-a.Sum) / float64(n) / div
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedServing is the --trace 1 run of a serving workload. blocks
// alternate untraced and traced open-loop blocks on the same schedule;
// the gap between their median p50s is the tracing overhead. /stats
// snapshots around them give counters and exact stage means, and timed
// replays of the same requests through each layer's public entry point
// give the per-call costs.
func tracedServing(st *stack, p *population, client *loadClient, blocks []block, compileSet []*graphCase, rep *report) error {
	tclient := newLoadClient(st.front.URL, runtime.GOMAXPROCS(0), true)
	defer tclient.close()
	runtime.GC()
	before, err := st.snapshot()
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	tr := &phase{}
	var p50Untraced, p50Traced []float64
	for i, b := range blocks {
		if i%2 == 0 {
			ph, msgs := openLoop(client, "open-loop", b.reqs, b.dues, 0)
			ph.account(rep, msgs)
			p50Untraced = append(p50Untraced, quantile(ph.latencies(false), 0.5))
			continue
		}
		ph, msgs := openLoop(tclient, "traced-open-loop", b.reqs, b.dues, len(tr.samples))
		ph.account(rep, msgs)
		p50Traced = append(p50Traced, quantile(ph.latencies(false), 0.5))
		tr.samples = append(tr.samples, ph.samples...)
	}
	gcFrac, alloc := rt0.since()
	after, err := st.snapshot()
	if err != nil {
		return err
	}

	m := map[string]float64{}
	var transport, lates []float64
	for _, s := range tr.samples {
		lates = append(lates, ms(s.late))
		if h := st.frontSpan.durs[s.seq].Load(); s.out == okOutcome && h > 0 {
			transport = append(transport, us(s.svc-time.Duration(h)))
		}
	}
	m["serve.transport_us"] = mean(transport)
	m["loadgen.late_p99_ms"] = quantile(lates, 0.99)
	m["runtime.gc_cpu_frac"] = gcFrac
	m["runtime.alloc_kb_per_req"] = float64(alloc) / 1024 / float64(2*len(tr.samples))
	p0, p1 := median(p50Untraced), median(p50Traced)
	m["bench.trace_overhead_pct"] = 100 * (p1 - p0) / p0

	s0, s1 := before.serve.Sched, after.serve.Sched
	m["sched.linger_us"] = histMean(s0.LingerHist, s1.LingerHist, 1e3)
	m["sched.queue_wait_us"] = histMean(s0.QueueWaitHist, s1.QueueWaitHist, 1e3)
	m["sched.execute_us"] = histMean(s0.ExecuteHist, s1.ExecuteHist, 1e3)
	m["sched.batch_size_mean"] = histMean(s0.BatchSizeHist, s1.BatchSizeHist, 1)
	m["sched.rejected"] = float64(s1.Rejected - s0.Rejected)
	e0, e1 := before.serve.Engine, after.serve.Engine
	hits, misses := float64(e1.Hits-e0.Hits), float64(e1.Misses-e0.Misses)
	m["engine.hit_ratio"] = ratio(hits, hits+misses)
	m["engine.evictions"] = float64(e1.Evictions - e0.Evictions)
	// Both halves of a round pair carry never-seen graphs of their own.
	freshN := 0
	for _, b := range blocks {
		for _, r := range b.reqs {
			if r.fresh {
				freshN++
			}
		}
	}
	m["engine.compiles_per_new_fp"] = ratio(misses, float64(freshN))
	if st.gw != nil {
		g0, g1 := before.gw, after.gw
		m["gateway.hedge_ratio"] = ratio(float64(g1.Hedges-g0.Hedges), float64(g1.Proxied-g0.Proxied))
		m["gateway.hedge_win_ratio"] = ratio(float64(g1.HedgeWins-g0.HedgeWins), float64(g1.Hedges-g0.Hedges))
		m["gateway.failovers"] = float64(g1.Failovers - g0.Failovers)
	}

	if err := replayServing(st, p, m, rep); err != nil {
		return err
	}
	if err := replayCompile(compileSet, p.suite, m); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  open loop p50, median over blocks: traced %.3f ms, untraced %.3f ms\n", p1, p0)
	return setLayers(rep, m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replayRounds is how many timed passes the replays make over their
// request set, after one untimed pass that warms every cache.
const (
	replayRounds   = 2
	replayPerGraph = 4
)

// measure runs f once and returns its wall time and heap allocations.
func measure(f func()) (time.Duration, uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return d, b.Mallocs - a.Mallocs
}

// replayServing replays requests one at a time through the public entry
// points of each serving layer, timing each call and counting its
// allocations; m receives the means.
func replayServing(st *stack, p *population, m map[string]float64, rep *report) error {
	var set []*request
	for g := range p.suite {
		set = append(set, p.pool[g*vectorsPer:g*vectorsPer+replayPerGraph]...)
	}
	srv := st.servers[0]
	samples := map[string][]float64{}
	for round := 0; round <= replayRounds; round++ {
		add := func(name string, v float64) {
			if round > 0 {
				samples[name] = append(samples[name], v)
			}
		}
		for _, r := range set {
			var req serve.ExecuteRequest
			var err error
			d, _ := measure(func() { err = json.NewDecoder(bytes.NewReader(r.body)).Decode(&req) })
			if err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			add("serve.decode_us", us(d))

			var g *dag.Graph
			d, allocs := measure(func() { g, err = dag.Read(strings.NewReader(req.Graph), "request") })
			if err != nil {
				return fmt.Errorf("replay dag.Read: %w", err)
			}
			add("dag.read_us", us(d))
			add("dag.read_allocs", float64(allocs))
			d, _ = measure(func() { g.Fingerprint() }) // memoized, so first call on a fresh graph
			add("dag.fingerprint_us", us(d))

			var res sched.Result
			d, _ = measure(func() { res, err = srv.Scheduler().Submit(g, arch.MinEDP(), compiler.Options{}, req.Inputs[0]) })
			if err != nil {
				return fmt.Errorf("replay Submit %s: %w", r.gc.name, err)
			}
			if !sameOutputs(res.Outputs, r.want) {
				rep.violate("replay Submit %s: outputs %v, reference %v", r.gc.name, head(res.Outputs), head(r.want))
			}
			add("sched.submit_us", us(d))

			var resp serve.ExecuteResponse
			d, allocs, err = replayHandler(srv.Handler(), r, &resp, rep)
			if err != nil {
				return err
			}
			add("serve.handler_us", us(d))
			add("serve.handler_allocs", float64(allocs))
			d, _ = measure(func() { _, err = json.Marshal(resp) })
			if err != nil {
				return fmt.Errorf("replay encode: %w", err)
			}
			add("serve.encode_us", us(d))

			if st.gw == nil {
				continue
			}
			// The gateway's self time: its handler's time less the
			// backend handler span inside it (the winner's, if hedged).
			for _, b := range st.backSpans {
				b.last.Store(0)
			}
			if d, _, err = replayHandler(st.gw.Handler(), r, &resp, rep); err != nil {
				return err
			}
			var back time.Duration
			for _, b := range st.backSpans {
				if v := time.Duration(b.last.Load()); v > 0 && (back == 0 || v < back) {
					back = v
				}
			}
			add("gateway.self_us", us(d-back))
		}
	}
	for name, xs := range samples {
		m[name] = mean(xs)
	}
	return nil
}

// replayHandler serves r through h on an in-memory recorder, checks the
// reply, and returns the handler's time and allocations.
func replayHandler(h http.Handler, r *request, resp *serve.ExecuteResponse, rep *report) (time.Duration, uint64, error) {
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(r.body))
	d, allocs := measure(func() { h.ServeHTTP(rec, hreq) })
	*resp = serve.ExecuteResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
		return 0, 0, fmt.Errorf("replay %s: status %d: %w", r.gc.name, rec.Code, err)
	}
	if msg := checkResponse(r, resp); msg != "" {
		rep.violate("replay: %s", msg)
	}
	return d, allocs, nil
}

// replayCompile times compiler.Compile (MinEDP) over compileSet and
// reports the compiled suite's exact schedule counts.
func replayCompile(compileSet, suite []*graphCase, m map[string]float64) error {
	var times []float64
	for _, gc := range compileSet {
		t0 := time.Now()
		if _, err := compiler.Compile(gc.g, arch.MinEDP(), compiler.Options{}); err != nil {
			return fmt.Errorf("compile %s: %w", gc.name, err)
		}
		times = append(times, ms(time.Since(t0)))
	}
	m["compiler.compile_ms"] = mean(times)
	for _, gc := range suite {
		c, err := compiler.Compile(gc.g, arch.MinEDP(), compiler.Options{})
		if err != nil {
			return fmt.Errorf("compile %s: %w", gc.name, err)
		}
		addCounts(m, c.Stats)
	}
	return nil
}

func addCounts(m map[string]float64, s compiler.Stats) {
	m["compiler.cycles"] += float64(s.Cycles)
	m["compiler.copied_words"] += float64(s.CopiedWords)
	m["compiler.spill_stores"] += float64(s.SpillStores)
	m["compiler.nops"] += float64(s.Nops)
}

// tracedOffline is the --trace 1 run of table1-offline: untraced passes
// alternating with passes that time every stage, and the stage means.
func tracedOffline(eng *engine.Engine, ogs []*offlineGraph, measured time.Duration, rep *report) error {
	base, tr := &passStats{}, &passStats{}
	runtime.GC()
	rt0 := readRuntime()
	for start := time.Now(); time.Since(start) < measured; {
		if err := sequentialPasses(eng, ogs, 0, false, base, rep); err != nil {
			return err
		}
		if err := sequentialPasses(eng, ogs, 0, true, tr, rep); err != nil {
			return err
		}
	}
	gcFrac, alloc := rt0.since()
	rep.phase("passes", int64(base.jobs), 0)
	rep.phase("traced-passes", int64(tr.jobs), 0)

	m := map[string]float64{}
	var read, readAllocs, fprint, comp, ver, enc, dec, en []float64
	var cycleNS, cycleOps float64
	for i, s := range tr.spans {
		og := ogs[i%len(ogs)]
		read = append(read, us(s.read))
		readAllocs = append(readAllocs, float64(s.readAllocs))
		fprint = append(fprint, us(s.fingerprint))
		comp = append(comp, ms(s.compile))
		ver = append(ver, ms(s.verify))
		enc = append(enc, ms(s.encode))
		dec = append(dec, ms(s.decode))
		en = append(en, us(s.energy))
		cycleNS += float64(s.cycleSim)
		cycleOps += float64(og.gc.ops)
	}
	m["dag.read_us"] = mean(read)
	m["dag.read_allocs"] = mean(readAllocs)
	m["dag.fingerprint_us"] = mean(fprint)
	m["compiler.compile_ms"] = mean(comp)
	m["verify.verify_ms"] = mean(ver)
	m["artifact.encode_ms"] = mean(enc)
	m["artifact.decode_ms"] = mean(dec)
	m["energy.estimate_us"] = mean(en)
	m["sim.cycle_ns_per_op"] = cycleNS / cycleOps
	m["sim.func_ns_per_op"] = float64(tr.batchTime) / tr.batchOps
	for _, og := range ogs {
		addCounts(m, og.stats)
	}
	m["runtime.gc_cpu_frac"] = gcFrac
	m["runtime.alloc_kb_per_req"] = float64(alloc) / 1024 / float64(base.jobs+tr.jobs)
	b, t := median(base.passes), median(tr.passes)
	m["bench.trace_overhead_pct"] = 100 * (t - b) / b
	fmt.Fprintf(os.Stderr, "  traced pass %.3f s vs untraced %.3f s\n", t, b)
	return setLayers(rep, m)
}
