package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
	"dpuv2/internal/serve"
	"dpuv2/internal/sptrsv"
)

// graphCase is one graph of a workload's population, rendered to the
// wire format during set-up.
type graphCase struct {
	name string
	text string     // dag.Write form, as sent to the server
	g    *dag.Graph // text parsed back: the graph the server sees
	fp   string     // g's fingerprint, as /execute reports it
	// bin is g binarized as the compiler does it, and outPos[i] the index
	// of g's i-th output among bin's outputs. The DPU executes bin, whose
	// association order for k-ary sums differs from g's, so bin is the
	// reference sim.CheckOutputs uses too.
	bin    *dag.Graph
	outPos []int
	ops    int // arithmetic nodes of bin: the operations the DPU executes
	nIn    int
}

func newGraphCase(name string, g *dag.Graph) (*graphCase, error) {
	var sb strings.Builder
	if err := dag.Write(&sb, g); err != nil {
		return nil, fmt.Errorf("render %s: %w", name, err)
	}
	parsed, err := dag.Read(strings.NewReader(sb.String()), name)
	if err != nil {
		return nil, fmt.Errorf("parse %s back: %w", name, err)
	}
	bin, remap := dag.Binarize(parsed)
	at := map[dag.NodeID]int{}
	for i, o := range bin.Outputs() {
		at[o] = i
	}
	outPos := make([]int, len(parsed.Outputs()))
	for i, o := range parsed.Outputs() {
		outPos[i] = at[remap[o]]
	}
	return &graphCase{
		name:   name,
		text:   sb.String(),
		g:      parsed,
		fp:     parsed.Fingerprint().String(),
		bin:    bin,
		outPos: outPos,
		ops:    dag.ComputeStats(bin).Interior,
		nIn:    len(parsed.Inputs()),
	}, nil
}

// tableI builds the twelve Table I(a)(b) graphs — six probabilistic
// circuits and six SpTRSV lowerings — at the given scale. They do not
// depend on the seed: the seed draws the input vectors.
func tableI(scale float64) ([]*graphCase, error) {
	var cases []*graphCase
	for _, s := range pc.Suite() {
		gc, err := newGraphCase(s.Name, pc.Build(s, scale))
		if err != nil {
			return nil, err
		}
		cases = append(cases, gc)
	}
	for _, s := range sptrsv.Suite() {
		g, _ := sptrsv.Build(s, scale)
		gc, err := newGraphCase(s.Name, g)
		if err != nil {
			return nil, err
		}
		cases = append(cases, gc)
	}
	return cases, nil
}

// churnGraph generates the i-th never-seen graph of a seed: a
// probabilistic circuit shaped like the small Table I(a) circuits at
// scale 0.1–0.3, with its own structure seed. Its size, 1–3k nodes, is
// the i-th point of a golden-ratio sequence rather than a random draw,
// so any run of consecutive graphs covers the range evenly and every
// seed offers the same mix of sizes.
func churnGraph(seed int64, i int) (*graphCase, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	_, frac := math.Modf(float64(i) * 0.6180339887498949)
	nodes := 1000 + int(2000*frac)
	name := fmt.Sprintf("churn-%d-%d", seed, i)
	return newGraphCase(name, pc.Generate(pc.Config{
		Name:        name,
		Vars:        8 + rng.Intn(8),
		TargetNodes: nodes,
		TargetDepth: 25 + rng.Intn(30),
		SumFanin:    3,
		Weighted:    true,
		SkipProb:    0.15,
		Seed:        rng.Int63(),
	}))
}

// inputVector draws one input vector in [0.05, 0.4): indicator values
// for the circuits and right-hand sides for the SpTRSV solves. The
// circuits alternate weighted sums and products, so their values square
// every two layers: indicators near 1 overflow the deeper circuits to
// +Inf, while this range keeps every Table I output finite and non-zero.
func inputVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.05 + 0.35*rng.Float64()
	}
	return v
}

// reference evaluates the binarized graph on in with dag.EvalOutputs,
// in the order of the submitted graph's outputs, and insists on finite
// outputs: a workload whose inputs overflow would count the program's
// correct +Inf answers as failures.
func reference(gc *graphCase, in []float64) ([]float64, error) {
	out, err := dag.EvalOutputs(gc.bin, in)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", gc.name, err)
	}
	want := make([]float64, len(gc.outPos))
	for i, p := range gc.outPos {
		want[i] = out[p]
	}
	for _, v := range want {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("reference %s: input vector gives non-finite output %v", gc.name, v)
		}
	}
	return want, nil
}

// sameOutputs compares outputs with the carve-out sim.CheckOutputs
// makes: equal bits, or NaN on both sides.
func sameOutputs(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if got[i] != w && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// request is one pre-rendered POST /execute: a graph and one input
// vector, with the reference outputs the response must carry.
type request struct {
	gc    *graphCase
	body  []byte
	want  []float64
	fresh bool // first request of a fingerprint the fleet has not seen
}

func newRequest(gc *graphCase, in []float64) (*request, error) {
	want, err := reference(gc, in)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.ExecuteRequest{Graph: gc.text, Inputs: [][]float64{in}})
	if err != nil {
		return nil, fmt.Errorf("render request for %s: %w", gc.name, err)
	}
	return &request{gc: gc, body: body, want: want}, nil
}

// requestPool renders perGraph requests for each graph, each with its
// own input vector drawn from rng.
func requestPool(cases []*graphCase, perGraph int, rng *rand.Rand) ([]*request, error) {
	var pool []*request
	for _, gc := range cases {
		for k := 0; k < perGraph; k++ {
			r, err := newRequest(gc, inputVector(rng, gc.nIn))
			if err != nil {
				return nil, err
			}
			pool = append(pool, r)
		}
	}
	return pool, nil
}

// checkResponse compares a decoded /execute reply with the request's
// reference. It returns "" when the reply is right, else the reason.
func checkResponse(r *request, resp *serve.ExecuteResponse) string {
	if len(resp.Results) != 1 {
		return fmt.Sprintf("%s: %d results for one vector", r.gc.name, len(resp.Results))
	}
	if e := resp.Results[0].Error; e != "" {
		return fmt.Sprintf("%s: %s", r.gc.name, e)
	}
	if resp.Fingerprint != r.gc.fp {
		return fmt.Sprintf("%s: fingerprint %s", r.gc.name, resp.Fingerprint)
	}
	if !sameOutputs(resp.Results[0].Outputs, r.want) {
		return fmt.Sprintf("%s: outputs %v, reference %v", r.gc.name, head(resp.Results[0].Outputs), head(r.want))
	}
	return ""
}

func head(xs []float64) []float64 {
	if len(xs) > 4 {
		return xs[:4]
	}
	return xs
}
