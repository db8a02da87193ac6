package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"

	"dpuv2/internal/serve"
)

// seqHeader carries a request's sequence number in traced runs, so the
// handler spans recorded server-side pair with client-side latencies.
const seqHeader = "X-Bench-Seq"

// outcome classifies one request. Every class but okOutcome counts as
// failed; wrongOutcome is also a correctness violation.
type outcome int

const (
	okOutcome        outcome = iota
	wrongOutcome             // 200 with outputs that disagree with dag.EvalOutputs (non-finite included)
	refusedOutcome           // non-200 status
	transportOutcome         // connection or decode failure
)

// loadClient posts pre-rendered requests over at most conns keep-alive
// connections; a request that waits for a connection waits inside Do,
// and its latency still counts from its due time.
type loadClient struct {
	http   *http.Client
	url    string
	traced bool
}

func newLoadClient(base string, conns int, traced bool) *loadClient {
	return &loadClient{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		url:    base + "/execute",
		traced: traced,
	}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// do sends r and checks the reply against its reference. resp is reused
// by the caller between requests; msg explains a non-ok outcome. A traced
// client stamps seq and sets *gotConn to when the request got its
// connection, which excludes the wait for a free one.
func (c *loadClient) do(r *request, seq int, resp *serve.ExecuteResponse, gotConn *time.Time) (outcome, string) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(r.body))
	if err != nil {
		return transportOutcome, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	if c.traced {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { *gotConn = time.Now() },
		}))
	}
	hr, err := c.http.Do(req)
	if err != nil {
		return transportOutcome, err.Error()
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 256))
		return refusedOutcome, fmt.Sprintf("status %d: %s", hr.StatusCode, bytes.TrimSpace(msg))
	}
	*resp = serve.ExecuteResponse{}
	err = json.NewDecoder(hr.Body).Decode(resp)
	// Drain so the keep-alive connection is reused.
	io.Copy(io.Discard, hr.Body)
	if err != nil {
		return transportOutcome, "decode reply: " + err.Error()
	}
	if msg := checkResponse(r, resp); msg != "" {
		return wrongOutcome, msg
	}
	return okOutcome, ""
}

// sample is one request's record, kept raw so percentiles are exact.
type sample struct {
	lat   time.Duration // open loop: from due time; closed loop: from send
	svc   time.Duration // from send (traced: from getting a connection) to reply decoded
	late  time.Duration // open loop: how late the generator dispatched it
	seq   int
	ops   int // arithmetic nodes of the request's graph
	fresh bool
	out   outcome
}

// phase is the raw outcome of one load phase.
type phase struct {
	name    string
	samples []sample
	elapsed time.Duration
}

// account adds the phase's attempted/failed counts to rep and reports
// failures; wrong outputs become correctness violations.
func (p *phase) account(rep *report, msgs []string) {
	var failed int64
	for i, s := range p.samples {
		if s.out == okOutcome {
			continue
		}
		failed++
		if s.out == wrongOutcome {
			rep.violate("%s: %s", p.name, msgs[i])
		}
	}
	rep.phase(p.name, int64(len(p.samples)), failed)
}

// latencies returns the ok latencies in milliseconds, optionally only
// those of first-sight requests.
func (p *phase) latencies(freshOnly bool) []float64 {
	var xs []float64
	for _, s := range p.samples {
		if s.out == okOutcome && (!freshOnly || s.fresh) {
			xs = append(xs, ms(s.lat))
		}
	}
	return xs
}

func (p *phase) ok() int {
	n := 0
	for _, s := range p.samples {
		if s.out == okOutcome {
			n++
		}
	}
	return n
}

// poissonSchedule draws exponential inter-arrival gaps at a constant
// rate until dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return dues
		}
		dues = append(dues, d)
	}
}

// openLoop sends reqs[k] at dues[k] regardless of earlier replies. seq0
// offsets the sequence numbers stamped in traced runs.
func openLoop(c *loadClient, name string, reqs []*request, dues []time.Duration, seq0 int) (*phase, []string) {
	p := &phase{name: name, samples: make([]sample, len(reqs))}
	msgs := make([]string, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for k := range reqs {
		if d := time.Until(start.Add(dues[k])); d > 0 {
			time.Sleep(d)
		}
		p.samples[k].late = time.Since(start) - dues[k]
		p.samples[k].fresh = reqs[k].fresh
		p.samples[k].ops = reqs[k].gc.ops
		p.samples[k].seq = seq0 + k
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var resp serve.ExecuteResponse
			t0 := time.Now()
			out, msg := c.do(reqs[k], seq0+k, &resp, &t0)
			p.samples[k].svc = time.Since(t0)
			p.samples[k].lat = time.Since(start) - dues[k]
			p.samples[k].out, msgs[k] = out, msg
		}(k)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p, msgs
}

// closedLoop runs `clients` clients, each sending its next request only
// after the previous reply, until dur has passed or pick runs out.
func closedLoop(c *loadClient, name string, clients int, dur time.Duration, pick func() *request) (*phase, []string) {
	var (
		mu      sync.Mutex
		samples []sample
		msgs    []string
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp serve.ExecuteResponse
			var local []sample
			var lmsgs []string
			for time.Since(start) < dur {
				r := pick()
				if r == nil {
					break
				}
				t0 := time.Now()
				out, msg := c.do(r, 0, &resp, nil)
				d := time.Since(t0)
				local = append(local, sample{lat: d, svc: d, ops: r.gc.ops, fresh: r.fresh, out: out})
				lmsgs = append(lmsgs, msg)
			}
			mu.Lock()
			samples = append(samples, local...)
			msgs = append(msgs, lmsgs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return &phase{name: name, samples: samples, elapsed: time.Since(start)}, msgs
}
