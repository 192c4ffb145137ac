package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/bench"
	"loopsched/internal/loopd"
)

// Kernel sizes of loopd-http. mpdata and grid sweep their natural input,
// the paper grid's 16399 edges and 5568 points. linreg and mapreduce have
// none; their sizes give a sequential fold of about the cost of the mpdata
// sweep (README.md gives the measured costs).
var kernelN = map[string]int{"mpdata": 16399, "grid": 5568, "linreg": 1 << 15, "mapreduce": 1 << 16}

// servedKernels are the kernels loopd-http requests, weighted equally as in
// the loadgen traffic model's synthWorkloads.
var servedKernels = []string{"mpdata", "grid", "linreg", "mapreduce"}

// httpRound is the make-up of one client's round of POST /run requests; the
// seed only shuffles the order and the tenant of each request. The shares
// are those of the loadgen model's mixed profile (internal/loadgen
// synth.go): a tenth of its ops are pipelines and a fifth of the rest
// fan-outs, so singles, fan-outs and pipelines come 72:18:10, here 32:8:4.
// The pipelines are the first two stages of loadgen's two pipelineSpecs
// that start with a served kernel.
var httpRound = func() []httpReq {
	var round []httpReq
	for _, k := range servedKernels {
		for i := 0; i < 8; i++ {
			round = append(round, httpReq{kernels: []string{k}, width: 1})
		}
		for i := 0; i < 2; i++ {
			round = append(round, httpReq{kernels: []string{k}, width: 4})
		}
	}
	for i := 0; i < 2; i++ {
		round = append(round,
			httpReq{kernels: []string{"mpdata", "grid"}, width: 1},
			httpReq{kernels: []string{"linreg", "mapreduce"}, width: 1})
	}
	return round
}()

// The two tenants, weighted 3:1 on the server; a round sends tenantA three
// times as many requests as tenantB. clientHeader names the sending client
// to the traced run's handler wrapper.
const (
	tenantA, tenantB = "a", "b"
	clientHeader     = "X-Perfbench-Client"
)

// httpReq is one request of a round: a single job or a batched fan-out of
// width jobs of one kernel, or a pipeline whose stages are the kernels.
type httpReq struct {
	kernels []string
	width   int
	tenant  string
}

func (r httpReq) jobs() int { return len(r.kernels) * r.width }

func (r httpReq) path() string {
	k := r.kernels
	if len(k) > 1 {
		spec := ""
		for i, name := range k {
			if i > 0 {
				spec += ","
			}
			spec += fmt.Sprintf("%s:%d", name, kernelN[name])
		}
		return "/run?pipeline=" + spec + "&tenant=" + r.tenant
	}
	p := fmt.Sprintf("/run?workload=%s&n=%d&tenant=%s", k[0], kernelN[k[0]], r.tenant)
	if r.width > 1 {
		p += fmt.Sprintf("&jobs=%d&batch=1", r.width)
	}
	return p
}

// runJob and runResp mirror the /run response body.
type runJob struct {
	Job     uint64  `json:"job"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Result  float64 `json:"result"`
	Error   string  `json:"error"`
}

type runResp struct {
	WallSeconds float64  `json:"wall_seconds"`
	Results     []runJob `json:"results"`
	Pipeline    []struct {
		Workload string   `json:"workload"`
		Results  []runJob `json:"results"`
	} `json:"pipeline"`
}

// timedHandler wraps the loopd server and records how long each ServeHTTP
// call took, in the slot of the client named by the request header.
type timedHandler struct {
	h     http.Handler
	serve []atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	if c, err := strconv.Atoi(r.Header.Get(clientHeader)); err == nil && c >= 0 && c < len(t.serve) {
		t.serve[c].Store(int64(d))
	}
}

// loopdHTTP is the loopd-http workload: an in-process loopd server behind a
// loopback listener, driven by nproc keep-alive clients.
type loopdHTTP struct {
	srv    *loopd.Server
	timed  *timedHandler
	hs     *http.Server
	served chan error
	base   string
	tr     *http.Transport
	client *http.Client

	want    map[string]float64 // kernel -> sequential fold over [0, n)
	clients []*httpClient
}

type httpClient struct {
	id     int
	round  []httpReq
	rec    *recorder
	failed int            // requests that failed or were rejected
	err    error          // the first of them
	sent   map[string]int // requests that succeeded, per tenant
	jobs   map[string]int // jobs of those requests, per tenant

	// Traced runs only.
	serve, overhead, client, job []time.Duration
	workers, results             int
	lastJobs                     []uint64
}

// newLoopd builds the program state: the server with tracing on, the
// loopback listener and the client transport, then sends one request per
// kernel so the server builds its kernel state.
func newLoopd(traced bool) (*loopdHTTP, error) {
	srv, err := loopd.New(loopd.Config{Trace: true, TenantWeights: map[string]int{tenantA: 3, tenantB: 1}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	w := &loopdHTTP{srv: srv, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	var h http.Handler = srv
	if traced {
		w.timed = &timedHandler{h: srv, serve: make([]atomic.Int64, clients())}
		h = w.timed
	}
	w.hs = &http.Server{Handler: h}
	go func() { w.served <- w.hs.Serve(ln) }()
	w.tr = &http.Transport{MaxIdleConnsPerHost: clients(), MaxConnsPerHost: clients(), DisableCompression: true}
	w.client = &http.Client{Transport: w.tr}
	for _, k := range servedKernels {
		r := httpReq{kernels: []string{k}, width: 1, tenant: tenantA}
		status, body, err := w.post(-1, r)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("loopd-http: warm-up %s: status %d: %.200s", r.path(), status, body)
		}
		if err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *loopdHTTP) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // an error leaves connections to Close below
	_ = w.hs.Close()
	w.tr.CloseIdleConnections()
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(logOut, "loopd-http: serve:", err)
	}
	w.srv.Close()
}

// post sends one request on behalf of client and returns the response's
// status and body.
func (w *loopdHTTP) post(client int, r httpReq) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, w.base+r.path(), nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(clientHeader, strconv.Itoa(client))
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// reference folds every kernel request sequentially over [0, n), as built
// by bench.NewJobRequest, and gives each client its shuffled round.
func (w *loopdHTTP) reference(o opts) error {
	w.want = make(map[string]float64)
	for k, n := range kernelN {
		req, err := bench.NewJobRequest(k, bench.JobParams{N: n})
		if err != nil {
			return err
		}
		w.want[k] = req.RBody(0, 0, n, req.Identity)
	}
	for c := 0; c < clients(); c++ {
		hc := &httpClient{id: c, round: append([]httpReq(nil), httpRound...), sent: map[string]int{}, jobs: map[string]int{}}
		rng := rand.New(rand.NewPCG(o.seed, uint64(c)))
		rng.Shuffle(len(hc.round), func(i, j int) { hc.round[i], hc.round[j] = hc.round[j], hc.round[i] })
		tenants := rng.Perm(len(hc.round))
		for i := range hc.round {
			hc.round[i].tenant = tenantA
			if tenants[i] < len(hc.round)/4 {
				hc.round[i].tenant = tenantB
			}
		}
		w.clients = append(w.clients, hc)
	}
	return nil
}

// request sends one request of c's round and records it.
func (w *loopdHTTP) request(c *httpClient, r httpReq, traced bool) error {
	start := time.Now()
	status, body, err := w.post(c.id, r)
	c.rec.add(start)
	if err != nil {
		return err
	}
	resp, err := checkResponse(status, body, r, w.want)
	if err != nil {
		return err
	}
	c.sent[r.tenant]++
	c.jobs[r.tenant] += r.jobs()
	if !traced {
		return nil
	}
	lat := c.rec.samples[len(c.rec.samples)-1].lat
	serve := time.Duration(w.timed.serve[c.id].Load())
	c.serve = append(c.serve, serve)
	c.client = append(c.client, lat-serve)
	c.overhead = append(c.overhead, serve-seconds(resp.WallSeconds))
	each := func(j runJob) {
		c.job = append(c.job, seconds(j.Seconds))
		c.workers += j.Workers
		c.results++
		if len(c.lastJobs) < 256 {
			c.lastJobs = append(c.lastJobs, j.Job)
		} else {
			c.lastJobs[c.results%256] = j.Job
		}
	}
	for _, j := range resp.Results {
		each(j)
	}
	for _, st := range resp.Pipeline {
		for _, j := range st.Results {
			each(j)
		}
	}
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * 1e9) }

// statsResp is the part of GET /stats the benchmark reads.
type statsResp struct {
	Queue struct {
		Completed int64 `json:"completed"`
		Grown     int64 `json:"grown_total"`
		Peeled    int64 `json:"peeled_total"`
		Tenants   map[string]struct {
			Completed int64 `json:"completed"`
		} `json:"tenants"`
	} `json:"queue"`
}

func (w *loopdHTTP) getJSON(path string, v any) error {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// run drives every client in whole rounds until the deadline.
func (w *loopdHTTP) run(o opts, res *result) error {
	var before statsResp
	if err := w.getJSON("/stats", &before); err != nil {
		return err
	}
	rtBefore := readRuntime()
	t0 := time.Now()
	deadline := t0.Add(o.duration())
	recs := make([]*recorder, len(w.clients))
	for i, c := range w.clients {
		c.rec = newRecorder(t0, 1<<16)
		recs[i] = c.rec
	}
	cpu := startCPUSampler(t0, o.window())
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *httpClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for _, r := range c.round {
					if err := w.request(c, r, o.trace); err != nil {
						c.failed++
						c.err = cmp.Or(c.err, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	ph := summarise(recs, cpu.finish())
	res.attempted += ph.ops
	var firstErr error
	for _, c := range w.clients {
		res.failed += c.failed
		firstErr = cmp.Or(firstErr, c.err)
	}
	var after statsResp
	if err := w.getJSON("/stats", &after); err != nil {
		return err
	}
	served := map[string]int64{}
	for _, t := range []string{tenantA, tenantB} {
		served[t] = after.Queue.Tenants[t].Completed - before.Queue.Tenants[t].Completed
	}
	if err := checkTenants(served); err != nil {
		// The requests of a tenant with nothing served fail, apart from
		// those that had already failed.
		for _, t := range []string{tenantA, tenantB} {
			if served[t] <= 0 {
				for _, c := range w.clients {
					res.failed += c.sent[t]
				}
			}
		}
		firstErr = cmp.Or(firstErr, err)
	}
	if firstErr != nil {
		return firstErr
	}
	res.phase(ph)
	if !o.trace {
		return nil
	}
	res.addRuntime(rtBefore, ph.ops)
	var serve, overhead, client, job []time.Duration
	var lastJobs []uint64
	workers, results := 0, 0
	sent := map[string]int{}
	for _, c := range w.clients {
		for t, n := range c.jobs {
			sent[t] += n
		}
		serve, overhead = append(serve, c.serve...), append(overhead, c.overhead...)
		client, job = append(client, c.client...), append(job, c.job...)
		workers, results = workers+c.workers, results+c.results
		lastJobs = append(lastJobs, c.lastJobs...)
	}
	res.layer["trace.ops_per_s"] = ph.opsPerS
	res.dist("loopd.serve_us_p50", serve)
	res.dist("loopd.job_us_p50", job)
	res.dist("loopd.overhead_us_p50", overhead)
	res.dist("client.overhead_us_p50", client)
	// The served share of each tenant's jobs over its sent share; the
	// smaller of the two is 1 when neither tenant is starved.
	totalSent, totalServed := float64(sent[tenantA]+sent[tenantB]), float64(served[tenantA]+served[tenantB])
	ratio := 0.0
	for i, t := range []string{tenantA, tenantB} {
		r := (float64(served[t]) / totalServed) / (float64(sent[t]) / totalSent)
		if i == 0 || r < ratio {
			ratio = r
		}
	}
	res.layer["loopd.tenant_served_ratio"] = ratio
	kjobs := float64(after.Queue.Completed-before.Queue.Completed) / 1e3
	res.layer["jobs.workers_per_job"] = float64(workers) / float64(results)
	res.layer["jobs.grown_per_kjob"] = float64(after.Queue.Grown-before.Queue.Grown) / kjobs
	res.layer["jobs.peeled_per_kjob"] = float64(after.Queue.Peeled-before.Queue.Peeled) / kjobs
	queue, run, err := w.traceTimes(lastJobs)
	if err != nil {
		return err
	}
	res.dist("jobs.queue_us_p50", queue)
	res.dist("jobs.run_us_p50", run)
	res.layer["pool.idle_cores"] = idleCores(idleProbe)
	return nil
}

// otlpDoc is the part of GET /trace/{job} the benchmark reads: the spans of
// the job's OTLP trace.
type otlpDoc struct {
	ResourceSpans []struct {
		ScopeSpans []struct {
			Spans []struct {
				Name  string `json:"name"`
				Start string `json:"startTimeUnixNano"`
				End   string `json:"endTimeUnixNano"`
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

// traceTimes reads the finished traces of the given jobs from the server
// and returns the durations of their "queued" and "run" spans. A trace the
// server has already evicted from its ring is skipped.
func (w *loopdHTTP) traceTimes(ids []uint64) (queue, run []time.Duration, err error) {
	for _, id := range ids {
		var doc otlpDoc
		if err := w.getJSON(fmt.Sprintf("/trace/%d", id), &doc); err != nil {
			continue
		}
		for _, rs := range doc.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				for _, sp := range ss.Spans {
					a, _ := strconv.ParseInt(sp.Start, 10, 64)
					b, _ := strconv.ParseInt(sp.End, 10, 64)
					switch sp.Name {
					case "queued":
						queue = append(queue, time.Duration(b-a))
					case "run":
						run = append(run, time.Duration(b-a))
					}
				}
			}
		}
	}
	if len(run) == 0 {
		return nil, nil, fmt.Errorf("loopd-http: none of %d job traces could be read", len(ids))
	}
	return queue, run, nil
}
