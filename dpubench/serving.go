package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"dpuv2/internal/engine"
	"dpuv2/internal/gateway"
	"dpuv2/internal/serve"
)

// Serving workload parameters. Rates are constants, never derived at run
// time, so a faster or slower program is offered the same load.
const (
	serveScale   = 0.1 // Table I node counts × 0.1: 780–7.7k nodes
	vectorsPer   = 24  // pre-rendered input vectors per suite graph
	setupRepeats = 5   // set-ups per run; setup_s is their median
	// maxClosedRate bounds the closed-loop rate the never-seen graph pool
	// is sized for; a faster fleet ends the phase early when the pool
	// runs dry (reported on stderr).
	maxClosedRate = 300.0
)

// servingSpec describes one HTTP workload.
type servingSpec struct {
	name     string
	backends int     // 0: one serve.Server answers directly; n: gateway over n backends
	rate     float64 // open-loop Poisson rate, req/s
	// freshEvery > 0 makes every freshEvery-th request carry a graph the
	// fleet has never seen.
	freshEvery int
}

var (
	serveWarmSpec  = servingSpec{name: wServeWarm, rate: 100}
	fleetChurnSpec = servingSpec{name: wFleetChurn, backends: 2, rate: 40, freshEvery: 4}
)

func runServeWarm(o options, rep *report) error  { return runServing(o, serveWarmSpec, rep) }
func runFleetChurn(o options, rep *report) error { return runServing(o, fleetChurnSpec, rep) }

// stack is one set-up of the system under test, all in this process and
// reached over loopback HTTP.
type stack struct {
	front     *httptest.Server // where the load goes: the server, or the gateway
	engines   []*engine.Engine
	servers   []*serve.Server
	backs     []*httptest.Server
	gw        *gateway.Gateway
	frontSpan *handlerSpans   // traced runs only
	backSpans []*handlerSpans // traced fleet runs only
}

func newStack(spec servingSpec, traced bool) (*stack, error) {
	st := &stack{}
	wrap := func(h http.Handler) (http.Handler, *handlerSpans) {
		if !traced {
			return h, nil
		}
		s := newHandlerSpans(h)
		return s, s
	}
	newBackend := func() http.Handler {
		eng := engine.New(engine.Options{})
		srv := serve.New(eng, serve.Options{})
		st.engines = append(st.engines, eng)
		st.servers = append(st.servers, srv)
		return srv.Handler()
	}
	if spec.backends == 0 {
		h, sp := wrap(newBackend())
		st.front, st.frontSpan = httptest.NewServer(h), sp
		return st, nil
	}
	var urls []string
	for i := 0; i < spec.backends; i++ {
		h, sp := wrap(newBackend())
		b := httptest.NewServer(h)
		st.backs = append(st.backs, b)
		st.backSpans = append(st.backSpans, sp)
		urls = append(urls, b.URL)
	}
	gw, err := gateway.New(gateway.Options{Backends: urls})
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw
	h, sp := wrap(gw.Handler())
	st.front, st.frontSpan = httptest.NewServer(h), sp
	return st, nil
}

func (st *stack) close() {
	if st.front != nil {
		st.front.Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, s := range st.servers {
		s.Drain()
	}
	for _, b := range st.backs {
		b.Close()
	}
}

// snapshot is a GET /stats of the front: one server's stats, or the
// gateway's own counters beside the merged fleet view.
type snapshot struct {
	serve serve.StatsResponse
	gw    gateway.GatewayStats
}

func (st *stack) snapshot() (snapshot, error) {
	resp, err := http.Get(st.front.URL + "/stats")
	if err != nil {
		return snapshot{}, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if st.gw == nil {
		var s snapshot
		err = json.NewDecoder(resp.Body).Decode(&s.serve)
		return s, err
	}
	var fs gateway.FleetStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return snapshot{}, fmt.Errorf("decode fleet /stats: %w", err)
	}
	if fs.Fleet == nil {
		return snapshot{}, fmt.Errorf("fleet /stats: no backend answered")
	}
	return snapshot{serve: *fs.Fleet, gw: fs.Gateway}, nil
}

// warmUp sends one request per suite graph, one at a time: each is the
// graph's first sight, so the server compiles it.
func warmUp(st *stack, reqs []*request, rep *report) error {
	c := newLoadClient(st.front.URL, 1, false)
	defer c.close()
	var resp serve.ExecuteResponse
	for _, r := range reqs {
		switch out, msg := c.do(r, 0, &resp, nil); out {
		case okOutcome:
		case wrongOutcome:
			rep.violate("warm-up: %s", msg)
		default:
			return fmt.Errorf("warm-up %s: %s", r.gc.name, msg)
		}
	}
	return nil
}

// sweep sends one warm request per suite graph, one at a time.
func sweep(c *loadClient, reqs []*request) (*phase, []string) {
	p := &phase{name: "suite-sweep", samples: make([]sample, len(reqs))}
	msgs := make([]string, len(reqs))
	var resp serve.ExecuteResponse
	for i, r := range reqs {
		t0 := time.Now()
		p.samples[i].out, msgs[i] = c.do(r, 0, &resp, nil)
		p.samples[i].lat = time.Since(t0)
	}
	return p, msgs
}

// population is a serving run's pre-rendered traffic.
type population struct {
	suite []*graphCase
	pool  []*request // vectorsPer requests per suite graph, graph-major
	warm  []*request // the first request of every suite graph
}

func newPopulation(rng *rand.Rand) (*population, error) {
	suite, err := tableI(serveScale)
	if err != nil {
		return nil, err
	}
	pool, err := requestPool(suite, vectorsPer, rng)
	if err != nil {
		return nil, err
	}
	p := &population{suite: suite, pool: pool}
	for i := range suite {
		p.warm = append(p.warm, pool[i*vectorsPer])
	}
	return p, nil
}

// freshRequests renders n requests, each on its own never-seen graph.
// first numbers the graphs, so separate calls never repeat one.
func freshRequests(seed int64, first, n int, rng *rand.Rand) ([]*request, error) {
	reqs := make([]*request, n)
	for i := range reqs {
		gc, err := churnGraph(seed, first+i)
		if err != nil {
			return nil, err
		}
		r, err := newRequest(gc, inputVector(rng, gc.nIn))
		if err != nil {
			return nil, err
		}
		r.fresh = true
		reqs[i] = r
		// Only the rendered body is sent again; drop the graphs so a large
		// pool does not inflate the heap the run measures.
		gc.text, gc.g, gc.bin = "", nil, nil
	}
	return reqs, nil
}

// warmPicks draws warm requests stratified by graph: every run of
// len(suite) picks visits each suite graph once, in shuffled order, with
// a random one of its vectors. A block of traffic then carries the same
// graph mix in every run, and its latency percentiles do not move with
// the luck of the draw.
type warmPicks struct {
	p    *population
	rng  *rand.Rand
	perm []int
}

func (w *warmPicks) next() *request {
	if len(w.perm) == 0 {
		w.perm = w.rng.Perm(len(w.p.suite))
	}
	g := w.perm[0]
	w.perm = w.perm[1:]
	return w.p.pool[g*vectorsPer+w.rng.Intn(vectorsPer)]
}

// openStream pairs a Poisson schedule with its requests: warm requests
// from picks, and — when the workload churns — every freshEvery-th
// request a never-seen graph taken from fresh in order.
func openStream(spec servingSpec, picks *warmPicks, dues []time.Duration, fresh []*request) []*request {
	reqs := make([]*request, len(dues))
	f := 0
	for k := range reqs {
		if spec.freshEvery > 0 && k%spec.freshEvery == spec.freshEvery-1 {
			reqs[k] = fresh[f]
			f++
			continue
		}
		reqs[k] = picks.next()
	}
	return reqs
}

func countFresh(spec servingSpec, n int) int {
	if spec.freshEvery == 0 {
		return 0
	}
	return n / spec.freshEvery
}

// The measured time is split into rounds, each an open-loop block, a
// closed-loop block and suite sweeps, so every metric samples the whole
// run. A rate or percentile is computed exactly per round from its raw
// samples, and the run reports the median over rounds, which keeps a
// transient slowdown of the shared host out of the result. Short rounds
// matter for the open-loop tail: a slowdown of a few seconds then spoils
// only the rounds it overlaps, not a whole long one.
const (
	servingRounds  = 20
	sweepsPerRound = 2
	// idleFirstSight is how many never-seen graphs a serve-warm round
	// sends one at a time after its sweeps: the warm workload's only
	// first-sight traffic, kept out of its open and closed loops.
	idleFirstSight = 3
	// openTenths of each round is open loop, the rest closed loop.
	openTenths = 7
)

// block is one open-loop block: a Poisson schedule and its requests.
type block struct {
	dues []time.Duration
	reqs []*request
}

func runServing(o options, spec servingSpec, rep *report) error {
	rng := rand.New(rand.NewSource(o.seed))
	nproc := runtime.GOMAXPROCS(0)
	measured := time.Duration(o.seconds * float64(time.Second))

	// Benchmark-side generation: graphs, vectors, references, bodies and
	// schedules, all before anything is timed.
	p, err := newPopulation(rng)
	if err != nil {
		return err
	}
	nextFresh := 0
	takeFresh := func(n int) ([]*request, error) {
		reqs, err := freshRequests(o.seed, nextFresh, n, rng)
		nextFresh += n
		return reqs, err
	}
	newBlock := func(dues []time.Duration, picks *rand.Rand) (block, error) {
		fresh, err := takeFresh(countFresh(spec, len(dues)))
		if err != nil {
			return block{}, err
		}
		return block{dues, openStream(spec, &warmPicks{p: p, rng: picks}, dues, fresh)}, nil
	}
	// Untraced run: one block per round. Traced run: per round, the same
	// schedule and warm picks twice, untraced then traced (churn gets
	// unseen graphs again), plus the first-sight compiles to time:
	// never-seen graphs when the workload churns, else the suite the
	// set-up compiles.
	var blocks []block
	var closedFresh, idleFresh []*request
	compileSet := p.suite
	if o.trace {
		for r := 0; r < servingRounds; r++ {
			dues := poissonSchedule(rng, spec.rate, measured/2/servingRounds)
			pickSeed := rng.Int63()
			for i := 0; i < 2; i++ {
				b, err := newBlock(dues, rand.New(rand.NewSource(pickSeed)))
				if err != nil {
					return err
				}
				blocks = append(blocks, b)
			}
		}
		if spec.freshEvery > 0 {
			compileSet = nil
			for i := range p.suite {
				gc, err := churnGraph(o.seed, nextFresh+i)
				if err != nil {
					return err
				}
				compileSet = append(compileSet, gc)
			}
		}
	} else {
		for r := 0; r < servingRounds; r++ {
			b, err := newBlock(poissonSchedule(rng, spec.rate, measured*openTenths/10/servingRounds), rng)
			if err != nil {
				return err
			}
			blocks = append(blocks, b)
		}
		if closedFresh, err = takeFresh(countFresh(spec, int(maxClosedRate*measured.Seconds()*(10-openTenths)/10))); err != nil {
			return err
		}
		if spec.freshEvery == 0 {
			if idleFresh, err = takeFresh(servingRounds * idleFirstSight); err != nil {
				return err
			}
		}
	}
	closedOrder := make([]*request, 1<<16)
	picks := &warmPicks{p: p, rng: rng}
	for i := range closedOrder {
		closedOrder[i] = picks.next()
	}

	// Set-up: construction plus the warm-up compiles of the whole suite,
	// repeated; the last set-up is the one measured.
	var st *stack
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		// Collect the benchmark's own garbage (and the previous set-up's)
		// first, so set-up is not charged for it.
		runtime.GC()
		t0 := time.Now()
		if st, err = newStack(spec, o.trace); err != nil {
			return err
		}
		err := warmUp(st, p.warm, rep)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			st.close()
			return err
		}
		if i < setupRepeats-1 {
			st.close()
		}
	}
	defer st.close()
	rep.phase("setup", int64(setupRepeats*len(p.warm)), 0)

	client := newLoadClient(st.front.URL, nproc, false)
	defer client.close()
	if o.trace {
		return tracedServing(st, p, client, blocks, compileSet, rep)
	}

	var closedNext atomic.Int64
	pick := func() *request {
		k := int(closedNext.Add(1) - 1)
		if spec.freshEvery > 0 && k%spec.freshEvery == spec.freshEvery-1 {
			if i := k / spec.freshEvery; i < len(closedFresh) {
				return closedFresh[i]
			}
			return nil
		}
		return closedOrder[k%len(closedOrder)]
	}
	runtime.GC()
	before, err := st.snapshot()
	if err != nil {
		return err
	}
	var p50s, p90s, rps, gops, fresh, lates []float64
	sweepLat := make([][]float64, len(p.warm)) // per graph, ms
	newFPs := 0
	for r := 0; r < servingRounds; r++ {
		open, msgs := openLoop(client, "open-loop", blocks[r].reqs, blocks[r].dues, 0)
		open.account(rep, msgs)
		lat := open.latencies(false)
		p50s = append(p50s, quantile(lat, 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
		fresh = append(fresh, open.latencies(true)...)
		for _, s := range open.samples {
			lates = append(lates, ms(s.late))
		}
		newFPs += countFresh(spec, len(open.samples))

		closed, msgs := closedLoop(client, "closed-loop", nproc, closedDur(measured), pick)
		closed.account(rep, msgs)
		if closed.elapsed < closedDur(measured) {
			fmt.Fprintf(os.Stderr, "dpubench: never-seen graph pool ran dry after %v of a closed-loop block\n", closed.elapsed)
		}
		var ops float64
		for _, s := range closed.samples {
			if s.out == okOutcome {
				ops += float64(s.ops)
			}
			if s.fresh {
				newFPs++
			}
		}
		rps = append(rps, float64(closed.ok())/closed.elapsed.Seconds())
		gops = append(gops, ops/closed.elapsed.Seconds()/1e9)
		fmt.Fprintf(os.Stderr, "  round %d: open p50 %.3f ms p90 %.3f ms, closed %.1f req/s\n", r, p50s[r], p90s[r], rps[r])

		for i := 0; i < sweepsPerRound; i++ {
			s, msgs := sweep(client, p.warm)
			s.account(rep, msgs)
			for g, smp := range s.samples {
				if smp.out == okOutcome {
					sweepLat[g] = append(sweepLat[g], ms(smp.lat))
				}
			}
		}
		if len(idleFresh) > 0 {
			s, msgs := sweep(client, idleFresh[r*idleFirstSight:(r+1)*idleFirstSight])
			s.name = "idle-first-sight"
			s.account(rep, msgs)
			for _, smp := range s.samples {
				newFPs++
				if smp.out == okOutcome {
					fresh = append(fresh, ms(smp.lat))
				}
			}
		}
	}
	// The run ends with a /stats snapshot, so the counters come from the
	// same run as the end-to-end numbers.
	after, err := st.snapshot()
	if err != nil {
		return err
	}
	logCounters(spec, before, after, newFPs, quantile(lates, 0.99))

	rep.set("setup_s", "s", median(setups))
	rep.set("latency_p50_ms", "ms", median(p50s))
	rep.set("latency_p90_ms", "ms", median(p90s))
	rep.set("first_sight_p50_ms", "ms", quantile(fresh, 0.5))
	rep.set("sat_rps", "req/s", median(rps))
	rep.set("host_gops", "GOPS", median(gops))
	suite := 0.0
	for _, l := range sweepLat {
		suite += median(l)
	}
	rep.set("suite_s", "s", suite/1e3)
	simGOPS, simEDP, err := simFigures(p.suite, rep)
	if err != nil {
		return err
	}
	rep.set("sim_gops", "GOPS", simGOPS)
	rep.set("sim_edp", "pJ.ns/op", simEDP)
	return nil
}

// closedDur is the length of one round's closed-loop block.
func closedDur(measured time.Duration) time.Duration {
	return measured * (10 - openTenths) / 10 / servingRounds
}

// logCounters prints the run's closing /stats counters on stderr: the
// engine, scheduler and gateway activity behind the end-to-end numbers.
func logCounters(spec servingSpec, before, after snapshot, newFPs int, lateP99 float64) {
	e0, e1 := before.serve.Engine, after.serve.Engine
	fmt.Fprintf(os.Stderr, "  run /stats: engine hits %d misses %d evictions %d for %d never-seen fingerprints\n",
		e1.Hits-e0.Hits, e1.Misses-e0.Misses, e1.Evictions-e0.Evictions, newFPs)
	if spec.backends > 0 {
		g0, g1 := before.gw, after.gw
		fmt.Fprintf(os.Stderr, "  run /stats: gateway proxied %d hedges %d hedge wins %d failovers %d rejected %d\n",
			g1.Proxied-g0.Proxied, g1.Hedges-g0.Hedges, g1.HedgeWins-g0.HedgeWins, g1.Failovers-g0.Failovers, g1.Rejected-g0.Rejected)
	}
	fmt.Fprintf(os.Stderr, "  open loop: generator late p99 %.3f ms\n", lateP99)
}
