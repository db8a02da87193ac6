package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/energy"
	"dpuv2/internal/engine"
	"dpuv2/internal/sim"
	"dpuv2/internal/verify"
)

// Offline workload parameters.
const (
	offlineScale = 0.25 // Table I node counts × 0.25
	batchVectors = 256  // vectors per graph through engine.ExecuteBatchInto
)

// offlineGraph is one suite graph with everything a job is checked
// against, computed before anything is timed.
type offlineGraph struct {
	gc    *graphCase
	batch [][]float64     // batchVectors input vectors; batch[0] also drives sim.Run
	want  [][]float64     // dag.EvalOutputs of every batch vector
	stats compiler.Stats  // the schedule counts every job must reproduce
	est   energy.Estimate // the estimate every job must reproduce
}

// jobSpans are the per-stage durations of one traced job.
type jobSpans struct {
	read, fingerprint, compile, verify, encode, decode, cycleSim, energy time.Duration
	readAllocs                                                           uint64
}

// jobResult is what one job reports.
type jobResult struct {
	total, firstResult, batch time.Duration
	est                       energy.Estimate
	spans                     jobSpans
}

// job pushes one graph through the offline pipeline: dag.Read →
// compiler.Compile (MinEDP) → verify.Compiled → artifact round trip →
// sim.Run (cycle-accurate) → energy.EstimateRun, then batchVectors
// vectors through engine.ExecuteBatchInto. Every output and every
// deterministic by-product is checked. traced times each stage.
func job(eng *engine.Engine, og *offlineGraph, buf *batchBuf, traced bool, rep *report) (jobResult, error) {
	var r jobResult
	cfg := arch.MinEDP()
	opts := compiler.Options{}
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	mark := start
	span := func(d *time.Duration) {
		if traced {
			now := time.Now()
			*d = now.Sub(mark)
			mark = now
		}
	}

	if traced {
		runtime.ReadMemStats(&ms0)
		mark = time.Now()
	}
	g, err := dag.Read(strings.NewReader(og.gc.text), og.gc.name)
	if err != nil {
		return r, fmt.Errorf("dag.Read %s: %w", og.gc.name, err)
	}
	span(&r.spans.read)
	if traced {
		runtime.ReadMemStats(&ms1)
		r.spans.readAllocs = ms1.Mallocs - ms0.Mallocs
		mark = time.Now()
	}
	fp := g.Fingerprint()
	span(&r.spans.fingerprint)
	c, err := compiler.Compile(g, cfg, opts)
	if err != nil {
		return r, fmt.Errorf("compile %s: %w", og.gc.name, err)
	}
	span(&r.spans.compile)
	findings := verify.Compiled(c)
	span(&r.spans.verify)
	b, err := artifact.EncodeBytes(&artifact.Artifact{Fingerprint: fp, Options: opts, Compiled: c})
	if err != nil {
		return r, fmt.Errorf("encode %s: %w", og.gc.name, err)
	}
	span(&r.spans.encode)
	a, err := artifact.DecodeBytes(b)
	if err != nil {
		return r, fmt.Errorf("decode %s: %w", og.gc.name, err)
	}
	span(&r.spans.decode)
	res, err := sim.Run(a.Compiled, og.batch[0])
	if err != nil {
		return r, fmt.Errorf("sim.Run %s: %w", og.gc.name, err)
	}
	span(&r.spans.cycleSim)
	r.firstResult = time.Since(start)
	r.est = energy.EstimateRun(cfg, a.Compiled.Stats.Nodes, res.Stats, a.Compiled.Prog)
	span(&r.spans.energy)

	b0 := time.Now()
	eng.ExecuteBatchInto(a.Compiled, og.batch, buf.outs, nil, buf.errs)
	r.batch = time.Since(b0)
	r.total = time.Since(start)

	// Checks, outside every timed span.
	if verify.HasErrors(findings) {
		rep.violate("%s: verifier: %s", og.gc.name, verify.Summary(findings))
	}
	// The decoded program must carry the set-up compile's exact counts:
	// compilation is deterministic and the artifact round trip lossless.
	st := a.Compiled.Stats
	st.CompileSeconds = 0
	if st != og.stats {
		rep.violate("%s: compile stats %+v differ from set-up's %+v", og.gc.name, st, og.stats)
	}
	if r.est != og.est {
		rep.violate("%s: energy estimate %+v differs from the reference %+v", og.gc.name, r.est, og.est)
	}
	pos := og.gc.outPos
	sinks := a.Compiled.Graph.Outputs()
	got := make([]float64, len(pos))
	for i, p := range pos {
		got[i] = res.Outputs[sinks[p]]
	}
	if !sameOutputs(got, og.want[0]) {
		rep.violate("%s: sim.Run outputs %v, reference %v", og.gc.name, head(got), head(og.want[0]))
	}
	for v := range og.batch {
		if err := buf.errs[v]; err != nil {
			rep.violate("%s: batch vector %d: %v", og.gc.name, v, err)
			continue
		}
		for i, p := range pos {
			got[i] = buf.outs[v][p]
		}
		if !sameOutputs(got, og.want[v]) {
			rep.violate("%s: batch vector %d outputs %v, reference %v", og.gc.name, v, head(got), head(og.want[v]))
		}
	}
	return r, nil
}

// batchBuf holds one graph's ExecuteBatchInto outputs, allocated before
// anything is timed and reused by every job of one worker.
type batchBuf struct {
	outs [][]float64
	errs []error
}

func newBatchBufs(ogs []*offlineGraph) []batchBuf {
	bufs := make([]batchBuf, len(ogs))
	for i, og := range ogs {
		sinks := len(og.gc.bin.Outputs())
		bufs[i].errs = make([]error, len(og.batch))
		for range og.batch {
			bufs[i].outs = append(bufs[i].outs, make([]float64, sinks))
		}
	}
	return bufs
}

// offlineSuite generates the suite, its batch vectors and references.
func offlineSuite(rng *rand.Rand) ([]*offlineGraph, error) {
	suite, err := tableI(offlineScale)
	if err != nil {
		return nil, err
	}
	ogs := make([]*offlineGraph, len(suite))
	for i, gc := range suite {
		og := &offlineGraph{gc: gc}
		for v := 0; v < batchVectors; v++ {
			in := inputVector(rng, gc.nIn)
			want, err := reference(gc, in)
			if err != nil {
				return nil, err
			}
			og.batch = append(og.batch, in)
			og.want = append(og.want, want)
		}
		ogs[i] = og
	}
	return ogs, nil
}

// offlineSetup is the workload's program set-up: an engine, the warm-up
// compiles of the whole suite, and one batched execute per program so
// the engine's executor pool is built before anything is timed. It
// returns the compiled programs.
func offlineSetup(ogs []*offlineGraph) (*engine.Engine, []*compiler.Compiled, error) {
	eng := engine.New(engine.Options{})
	cs := make([]*compiler.Compiled, len(ogs))
	for i, og := range ogs {
		g, err := dag.Read(strings.NewReader(og.gc.text), og.gc.name)
		if err != nil {
			return nil, nil, err
		}
		if cs[i], err = compiler.Compile(g, arch.MinEDP(), compiler.Options{}); err != nil {
			return nil, nil, fmt.Errorf("compile %s: %w", og.gc.name, err)
		}
		// Two items per worker, so every worker leases its machine.
		n := 2 * eng.Workers()
		outs := make([][]float64, n)
		for v := range outs {
			outs[v] = make([]float64, len(og.gc.bin.Outputs()))
		}
		errs := make([]error, n)
		eng.ExecuteBatchInto(cs[i], og.batch[:n], outs, nil, errs)
		for _, err := range errs {
			if err != nil {
				return nil, nil, fmt.Errorf("execute %s: %w", og.gc.name, err)
			}
		}
	}
	return eng, cs, nil
}

// references fills in the by-products every job must reproduce, from
// the set-up's compiled programs.
func references(ogs []*offlineGraph, cs []*compiler.Compiled) error {
	for i, og := range ogs {
		c := cs[i]
		og.stats = c.Stats
		og.stats.CompileSeconds = 0
		res, err := sim.Run(c, og.batch[0])
		if err != nil {
			return fmt.Errorf("sim.Run %s: %w", og.gc.name, err)
		}
		og.est = energy.EstimateRun(arch.MinEDP(), c.Stats.Nodes, res.Stats, c.Prog)
	}
	return nil
}

// passStats summarizes sequential passes over the suite.
type passStats struct {
	passes                   []float64 // seconds per pass
	jobP50, jobP90, firstP50 []float64 // per pass, ms
	gops                     []float64 // per pass: batched execute's DAG ops/s ÷ 1e9
	batchOps                 float64   // DAG ops executed by the batched calls
	batchTime                time.Duration
	ests                     []energy.Estimate // the last pass's, suite order
	spans                    []jobSpans        // every traced job
	jobs                     int
}

// sequentialPasses runs whole passes over the suite, one job at a time,
// until dur has passed (at least one pass), adding them to ps.
func sequentialPasses(eng *engine.Engine, ogs []*offlineGraph, dur time.Duration, traced bool, ps *passStats, rep *report) error {
	bufs := newBatchBufs(ogs)
	start := time.Now()
	for first := true; first || time.Since(start) < dur; first = false {
		t0 := time.Now()
		var lat, firstRes []float64
		var ops float64
		var batch time.Duration
		ps.ests = ps.ests[:0]
		for i, og := range ogs {
			r, err := job(eng, og, &bufs[i], traced, rep)
			if err != nil {
				return err
			}
			lat = append(lat, ms(r.total))
			firstRes = append(firstRes, ms(r.firstResult))
			ops += float64(og.gc.ops * len(og.batch))
			batch += r.batch
			ps.ests = append(ps.ests, r.est)
			if traced {
				ps.spans = append(ps.spans, r.spans)
			}
			ps.jobs++
		}
		ps.passes = append(ps.passes, time.Since(t0).Seconds())
		ps.jobP50 = append(ps.jobP50, quantile(lat, 0.5))
		ps.jobP90 = append(ps.jobP90, quantile(lat, 0.9))
		ps.firstP50 = append(ps.firstP50, quantile(firstRes, 0.5))
		ps.gops = append(ps.gops, ops/batch.Seconds()/1e9)
		ps.batchOps += ops
		ps.batchTime += batch
	}
	return nil
}

// concurrentJobs runs nproc closed-loop workers, each taking the next
// suite graph in turn, for dur; it returns the completed jobs and the
// elapsed time.
func concurrentJobs(eng *engine.Engine, ogs []*offlineGraph, workers int, dur time.Duration, rep *report) (int, time.Duration, error) {
	var (
		mu   sync.Mutex
		next int
		done int
		ferr error
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		bufs := newBatchBufs(ogs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				mu.Lock()
				i := next % len(ogs)
				next++
				mu.Unlock()
				// Each job checks into its own report, merged under mu.
				local := newReport()
				_, err := job(eng, ogs[i], &bufs[i], false, local)
				mu.Lock()
				rep.wrong = append(rep.wrong, local.wrong...)
				if err != nil && ferr == nil {
					ferr = err
				}
				done++
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return done, time.Since(start), ferr
}

// simFigures compiles each graph (MinEDP), runs it cycle-accurately and
// returns the geometric means of the energy model's GOPS and EDP: §V's
// figures of merit, deterministic for a given suite.
func simFigures(suite []*graphCase, rep *report) (gops, edp float64, err error) {
	rng := rand.New(rand.NewSource(1))
	var ests []energy.Estimate
	for _, gc := range suite {
		c, err := compiler.Compile(gc.g, arch.MinEDP(), compiler.Options{})
		if err != nil {
			return 0, 0, fmt.Errorf("compile %s: %w", gc.name, err)
		}
		in := inputVector(rng, gc.nIn)
		res, err := sim.Run(c, in)
		if err != nil {
			return 0, 0, fmt.Errorf("sim.Run %s: %w", gc.name, err)
		}
		if err := sim.CheckOutputs(c, in, res, 0); err != nil {
			rep.violate("%s: %v", gc.name, err)
		}
		ests = append(ests, energy.EstimateRun(arch.MinEDP(), c.Stats.Nodes, res.Stats, c.Prog))
	}
	gops, edp = geomeans(ests)
	return gops, edp, nil
}

func geomeans(ests []energy.Estimate) (gops, edp float64) {
	var lg, le float64
	for _, e := range ests {
		lg += math.Log(e.ThroughputGOP)
		le += math.Log(e.EDP)
	}
	n := float64(len(ests))
	return math.Exp(lg / n), math.Exp(le / n)
}

func runOffline(o options, rep *report) error {
	rng := rand.New(rand.NewSource(o.seed))
	measured := time.Duration(o.seconds * float64(time.Second))
	ogs, err := offlineSuite(rng)
	if err != nil {
		return err
	}

	var eng *engine.Engine
	var cs []*compiler.Compiled
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		// Collect the benchmark's own garbage first, so set-up is not
		// charged for it.
		runtime.GC()
		t0 := time.Now()
		if eng, cs, err = offlineSetup(ogs); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := references(ogs, cs); err != nil {
		return err
	}
	if o.trace {
		return tracedOffline(eng, ogs, measured, rep)
	}

	// Rounds as in the serving workloads: sequential passes, then nproc
	// concurrent workers, repeated; rates are medians over rounds. A pass
	// takes about half a second, so these rounds are longer.
	const rounds = 10
	runtime.GC()
	rt0 := readRuntime()
	ps := &passStats{}
	var rps []float64
	jobs := 0
	for r := 0; r < rounds; r++ {
		if err := sequentialPasses(eng, ogs, measured*6/10/rounds, false, ps, rep); err != nil {
			return err
		}
		done, elapsed, err := concurrentJobs(eng, ogs, runtime.GOMAXPROCS(0), measured*4/10/rounds, rep)
		if err != nil {
			return err
		}
		rps = append(rps, float64(done)/elapsed.Seconds())
		jobs += done
	}
	rep.phase("passes", int64(ps.jobs), 0)
	rep.phase("concurrent-jobs", int64(jobs), 0)
	gcFrac, alloc := rt0.since()
	fmt.Fprintf(os.Stderr, "  runtime: gc cpu %.3f, %.0f KB allocated per job; set-ups %.3v s\n",
		gcFrac, float64(alloc)/1024/float64(ps.jobs+jobs), setups)

	gops, edp := geomeans(ps.ests)
	rep.set("setup_s", "s", median(setups))
	rep.set("suite_s", "s", median(ps.passes))
	rep.set("latency_p50_ms", "ms", median(ps.jobP50))
	rep.set("latency_p90_ms", "ms", median(ps.jobP90))
	rep.set("first_sight_p50_ms", "ms", median(ps.firstP50))
	rep.set("sat_rps", "req/s", median(rps))
	rep.set("host_gops", "GOPS", median(ps.gops))
	rep.set("sim_gops", "GOPS", gops)
	rep.set("sim_edp", "pJ.ns/op", edp)
	return nil
}
