// Command dpubench is the repository's benchmark. It drives the DPU-v2
// stack through its public packages, all in one process, and prints one
// JSON result line. Usage, from the repository root:
//
//	bash dpubench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	serve-warm      one serve.Server over loopback HTTP; the twelve Table
//	                I(a)(b) graphs at scale 0.1 are compiled during set-up.
//	fleet-churn     gateway.New (default options, hedging on) over two
//	                serve.Server backends; one request in four carries a
//	                graph the fleet has never seen.
//	table1-offline  no HTTP: each Table I(a)(b) graph at scale 0.25 goes
//	                through dag.Read, compiler.Compile (MinEDP),
//	                verify.Compiled, artifact encode/decode, sim.Run
//	                (cycle-accurate) and energy.EstimateRun, then 256
//	                vectors through engine.ExecuteBatchInto.
//
// Every workload reports every end-to-end metric (--trace 0):
//
//	setup_s             median of 5 set-ups: server construction plus the
//	                    suite's warm-up compiles (offline: engine plus
//	                    suite compiles)
//	latency_p50_ms,     serving: open-loop latency from each request's due
//	latency_p90_ms      time; offline: p50/p90 of the twelve job latencies
//	                    of a pass
//	sat_rps             completed requests (offline: jobs) per second with
//	                    nproc closed-loop clients (offline: workers)
//	first_sight_p50_ms  latency of requests whose graph is new: the churn
//	                    traffic (fleet-churn), never-seen graphs sent to the
//	                    idle server (serve-warm), time from dag.Read to the
//	                    first simulated result (offline)
//	suite_s             serving: one warm request per suite graph in turn,
//	                    summed per-graph medians; offline: a whole pass
//	host_gops           DAG operations per second: delivered by the closed
//	                    loop (serving), of the batched execute (offline)
//	sim_gops, sim_edp   geometric means over the suite of the energy model's
//	                    GOPS and EDP of cycle-accurate runs (deterministic)
//	peak_live_heap_mb   maximum of /gc/heap/live:bytes over the run
//
// Measurement is split into rounds (serving.go); a rate or percentile is
// computed exactly from each round's raw samples and the run reports the
// median over rounds. With --trace 1 a separate traced run reports the
// per-layer metrics instead (layers.go).
//
// Inputs (graphs, vectors, arrival schedules) are generated from --seed
// before anything is timed; the program under test only receives them.
// Every output is checked against dag.EvalOutputs, and the run fails
// with a non-zero exit when any is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wServeWarm  = "serve-warm"
	wFleetChurn = "fleet-churn"
	wOffline    = "table1-offline"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's outcome: metrics, per-phase request
// accounting and any correctness violation.
type report struct {
	metrics map[string]metric
	phases  []phaseCount
	wrong   []string // correctness violations, reported on stderr
}

// phaseCount is the attempted/failed accounting of one phase.
type phaseCount struct {
	name              string
	attempted, failed int64
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// phase adds to the named phase's counts; rounds of one phase share a
// line.
func (r *report) phase(name string, attempted, failed int64) {
	for i := range r.phases {
		if r.phases[i].name == name {
			r.phases[i].attempted += attempted
			r.phases[i].failed += failed
			return
		}
	}
	r.phases = append(r.phases, phaseCount{name, attempted, failed})
}

// violate records an output that disagrees with the reference.
func (r *report) violate(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	} else if len(r.wrong) == 20 {
		r.wrong = append(r.wrong, "further violations elided")
	}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "serve-warm, fleet-churn or table1-offline")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured time of the run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "dpubench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "dpubench: --seconds must be positive")
		os.Exit(2)
	}

	start := time.Now()
	heap := startHeapSampler(20 * time.Millisecond)
	rep := newReport()
	var err error
	switch o.workload {
	case wServeWarm:
		err = runServeWarm(o, rep)
	case wFleetChurn:
		err = runFleetChurn(o, rep)
	case wOffline:
		err = runOffline(o, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", o.workload, wServeWarm, wFleetChurn, wOffline)
	}
	peak := heap.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpubench:", err)
		os.Exit(1)
	}
	if !o.trace {
		rep.set("peak_live_heap_mb", "MB", float64(peak)/(1<<20))
	}

	res := result{Correct: len(rep.wrong) == 0, Metrics: rep.metrics}
	fmt.Fprintf(os.Stderr, "dpubench: %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d wall=%.1fs\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), time.Since(start).Seconds())
	for _, p := range rep.phases {
		fmt.Fprintf(os.Stderr, "  phase %-14s attempted %6d  failed %d\n", p.name, p.attempted, p.failed)
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	for _, w := range rep.wrong {
		fmt.Fprintln(os.Stderr, "  WRONG:", w)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpubench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
