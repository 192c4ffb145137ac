// Package loopd implements the HTTP front-end of the loop-serving daemon:
// POST /run over the named bench workloads (including pipelines), GET
// /stats, Prometheus GET /metrics, the SSE /events lifecycle feed and GET
// /trace/{job}. Command loopd wraps it in a flag-parsing main; cmd/loadgen
// embeds it (-selfserve) so trace replays can drive the exact production
// handler over a loopback listener without managing a daemon process.
package loopd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/bench"
	"loopsched/internal/jobs"
	"loopsched/internal/trace"
)

// Config configures the daemon's shared jobs runtime.
type Config struct {
	// Workers is the total worker count across all shards; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// Shards partitions the workers into per-topology-domain shards, each
	// with its own dispatcher; <= 0 derives the count from the machine
	// topology (one shard per cache/socket group).
	Shards int
	// StealInterval is the idle shards' sibling re-scan period; <= 0 selects
	// the default.
	StealInterval time.Duration
	// DisableStealing makes the shards fully independent pools behind the
	// router (no cross-shard job stealing or worker lending).
	DisableStealing bool
	// MaxWorkersPerJob caps every job's sub-team; <= 0 means no cap.
	MaxWorkersPerJob int
	// QueueDepth bounds the total admission queue, split across shards
	// (Submit blocks when the target shard's share is full).
	QueueDepth int
	// DefaultGrain is the self-scheduling chunk size for jobs that don't set
	// grain; <= 0 selects the per-job heuristic.
	DefaultGrain int
	// DisableElastic freezes sub-teams at admission (rigid static blocks).
	DisableElastic bool
	// TenantWeights pre-registers tenant accounts with fair-share weights;
	// unknown tenants are created on first use with weight 1.
	TenantWeights map[string]int
	// DisableFair replaces the weighted-fair admission policy with the
	// original single FIFO (tenants, priorities and deadlines ignored for
	// ordering; accounting still runs).
	DisableFair bool
	// LockOSThread pins workers to OS threads (benchmark fidelity; off by
	// default for a serving daemon).
	LockOSThread bool
	// Trace enables lifecycle tracing: /run responses carry job ids,
	// GET /events streams lifecycle transitions and GET /trace/{job} serves
	// finished span trees. Off, the hooks cost one nil check per transition
	// and both endpoints return 404.
	Trace bool
	// TraceBuffer is the default per-subscriber event buffer on /events
	// (overridable per request with &buffer=); <= 0 selects 4096. A
	// subscriber that falls behind loses events, which are counted, not
	// blocked on.
	TraceBuffer int
	// TraceCapacity is the number of finished job traces retained for
	// GET /trace/{job}; <= 0 selects the default (1024).
	TraceCapacity int
	// SLOTarget is the per-tenant deadline-hit objective burn rates are
	// measured against; outside (0, 1) selects the default (0.99).
	SLOTarget float64
	// MaxWait bounds how long a submission may block for an admission queue
	// slot before the request is rejected with 503 and a Retry-After hint;
	// <= 0 keeps the default unbounded block.
	MaxWait time.Duration
	// ShedInfeasible rejects (503 + Retry-After) deadline jobs whose
	// deadline could not be met even if the queue drained at the measured
	// service rate, instead of admitting them only to miss.
	ShedInfeasible bool
	// BreakerBurnRate arms per-tenant circuit breakers: a tenant burning its
	// SLO at or above this rate while crowding the queue is shed at intake
	// (429 + Retry-After) until a cooldown and a successful probe; <= 0
	// disables the breakers.
	BreakerBurnRate float64
	// BreakerCooldown is how long an open breaker sheds before probing;
	// <= 0 selects the default (250ms).
	BreakerCooldown time.Duration
	// Debug registers the net/http/pprof handlers under /debug/pprof/.
	Debug bool
	// CheckpointDir enables durable checkpoint/resume: job progress snapshots
	// are written to a file-backed WAL under this directory, POST
	// /jobs/{job}/suspend and /jobs/{job}/resume park and revive jobs at
	// chunk-wave boundaries, and on startup the daemon replays the store and
	// re-admits every unfinished job from its cursor watermark under its
	// original job id. Setting it force-enables tracing (job ids come from
	// the tracer). Empty disables durability; the suspend/resume endpoints
	// still work when Trace is set, without crash recovery.
	CheckpointDir string
	// EventsKeepalive is the idle heartbeat period of the /events SSE stream:
	// a comment line is written whenever no event has been sent for this
	// long, so idle connections survive proxies and LB idle timeouts. <= 0
	// selects 15s; set it shorter for aggressive intermediaries.
	EventsKeepalive time.Duration
}

// Server is the HTTP front-end over one sharded multi-tenant jobs runtime.
// Every /run request is a tenant: its jobs are admitted to the least-loaded
// shard (or a pinned one), and idle shards steal queued jobs and lend
// workers across shards, so concurrent requests share the machine without
// any scheduler-wide serialization point.
type Server struct {
	rt          *jobs.Sharded
	tracer      *trace.Tracer // nil unless Config.Trace or CheckpointDir
	traceBuffer int
	sloTarget   float64 // normalized configured SLO target, for /metrics
	keepalive   time.Duration
	started     time.Time
	statsSeq    atomic.Uint64 // monotonic /stats snapshot sequence
	mux         *http.ServeMux

	// ckpts is the durable snapshot store (nil without CheckpointDir);
	// recovered counts the jobs re-admitted from it at startup.
	ckpts     *jobs.FileStore
	recovered atomic.Int64
}

// New builds a Server over a freshly constructed sharded runtime. With
// Config.CheckpointDir set it also opens the checkpoint store, replays it,
// and re-admits every unfinished job before returning — the error is non-nil
// only when the store cannot be opened or replayed.
func New(cfg Config) (*Server, error) {
	var store *jobs.FileStore
	if cfg.CheckpointDir != "" {
		st, err := jobs.OpenFileStore(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		store = st
		// Durable jobs are keyed by tracer-assigned ids; a store without a
		// tracer could never name its snapshots.
		cfg.Trace = true
	}
	var tracer *trace.Tracer
	if cfg.Trace {
		tracer = trace.NewTracer(cfg.TraceCapacity)
	}
	traceBuffer := cfg.TraceBuffer
	if traceBuffer <= 0 {
		traceBuffer = 4096
	}
	// Normalize the SLO target once, mirroring the runtime's defaulting, so
	// /metrics can expose the objective before any completion samples exist.
	sloTarget := cfg.SLOTarget
	if !(sloTarget > 0 && sloTarget < 1) {
		sloTarget = 0.99
	}
	keepalive := cfg.EventsKeepalive
	if keepalive <= 0 {
		keepalive = 15 * time.Second
	}
	jc := jobs.Config{
		Workers:          cfg.Workers,
		MaxWorkersPerJob: cfg.MaxWorkersPerJob,
		QueueDepth:       cfg.QueueDepth,
		DefaultGrain:     cfg.DefaultGrain,
		DisableElastic:   cfg.DisableElastic,
		TenantWeights:    cfg.TenantWeights,
		DisableFair:      cfg.DisableFair,
		LockOSThread:     cfg.LockOSThread,
		Tracer:           tracer,
		SLOTarget:        cfg.SLOTarget,
		MaxWait:          cfg.MaxWait,
		ShedInfeasible:   cfg.ShedInfeasible,
		BreakerBurnRate:  cfg.BreakerBurnRate,
		BreakerCooldown:  cfg.BreakerCooldown,
		Name:             "loopd",
	}
	if store != nil {
		jc.Checkpoints = store
	}
	s := &Server{
		rt: jobs.NewSharded(jobs.ShardedConfig{
			Config:          jc,
			Shards:          cfg.Shards,
			StealInterval:   cfg.StealInterval,
			DisableStealing: cfg.DisableStealing,
		}),
		tracer:      tracer,
		traceBuffer: traceBuffer,
		sloTarget:   sloTarget,
		keepalive:   keepalive,
		started:     time.Now(),
		mux:         http.NewServeMux(),
		ckpts:       store,
	}
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /trace/{job}", s.handleTrace)
	s.mux.HandleFunc("POST /jobs/{job}/suspend", s.handleSuspend)
	s.mux.HandleFunc("POST /jobs/{job}/resume", s.handleResume)
	if cfg.Debug {
		// The pprof handlers are registered explicitly on the daemon's own
		// mux (the package's init wires http.DefaultServeMux, which loopd
		// never serves).
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if store != nil {
		if err := s.recoverFromStore(); err != nil {
			s.rt.Close()
			store.Close()
			return nil, err
		}
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains and releases every shard, then flushes the checkpoint store.
// Jobs suspended at close stay in the store (suspend-to-disk): the next
// process recovers them.
func (s *Server) Close() {
	s.rt.Close()
	if s.ckpts != nil {
		s.ckpts.Close()
	}
}

// Runtime exposes the underlying sharded pool (startup logging, tests).
func (s *Server) Runtime() *jobs.Sharded { return s.rt }

// Limits keeping one request from monopolising the daemon.
const (
	maxJobsPerRequest   = 1024
	maxIterationsPerJob = 1 << 28
	maxPipelineStages   = 64
)

// runJobResult is the outcome of one job of a /run request. Job is the
// tracing id usable with GET /trace/{job}; 0 when tracing is disabled.
type runJobResult struct {
	Job     uint64  `json:"job,omitempty"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Result  float64 `json:"result"`
	Error   string  `json:"error,omitempty"`
}

// traceID returns a job's tracing id (0 when tracing is disabled).
func traceID(j *jobs.Job) uint64 {
	if jt := j.Trace(); jt != nil {
		return jt.ID
	}
	return 0
}

// runResponse is the JSON body of a /run response. For pipeline requests,
// Pipeline carries the per-stage outcomes and Results is empty.
type runResponse struct {
	Workload    string          `json:"workload,omitempty"`
	Jobs        int             `json:"jobs"`
	Iterations  int             `json:"iterations_per_job,omitempty"`
	WallSeconds float64         `json:"wall_seconds"`
	Results     []runJobResult  `json:"results,omitempty"`
	Pipeline    []pipelineStage `json:"pipeline,omitempty"`
}

// pipelineStage is one stage of a pipeline /run response: a named workload
// fanned out over Width dependent jobs, each waiting for every job of the
// previous stage (fan-out/fan-in edges).
type pipelineStage struct {
	Workload string         `json:"workload"`
	N        int            `json:"n"`
	Width    int            `json:"width"`
	Results  []runJobResult `json:"results"`
}

// handleRun submits one or more jobs of a named workload (see
// bench.JobWorkloads) and waits for them. Query parameters: workload, n
// (iterations per job), jobs (concurrent jobs in this request), iterns
// (target ns/iteration for calibrated workloads), maxworkers, grain, shard
// (0-based shard pin; absent or -1 routes to the least-loaded shard).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	workload := r.FormValue("workload")
	if workload == "" {
		workload = "spin"
	}
	n, err := intParam(r, "n", 4096, 1, maxIterationsPerJob)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	nJobs, err := intParam(r, "jobs", 1, 1, maxJobsPerRequest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	iterNs, err := intParam(r, "iterns", 0, 0, 1<<20)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	maxWorkers, err := intParam(r, "maxworkers", 0, 0, 1<<16)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	grain, err := intParam(r, "grain", 0, 0, maxIterationsPerJob)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	shard, err := intParam(r, "shard", -1, -1, s.rt.Shards()-1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	batch, err := intParam(r, "batch", 0, 0, 1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pol, err := parsePolicy(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if spec := r.FormValue("pipeline"); spec != "" {
		if batch != 0 {
			http.Error(w, "batch conflicts with pipeline: batched admission is for independent jobs", http.StatusBadRequest)
			return
		}
		// The pipeline spec subsumes workload and jobs; reject the
		// combination instead of silently ignoring parameters.
		if r.FormValue("workload") != "" || r.FormValue("jobs") != "" {
			http.Error(w, "pipeline conflicts with workload/jobs: name workloads and widths in the pipeline stages", http.StatusBadRequest)
			return
		}
		stages, err := parsePipeline(spec, n)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.runPipeline(w, stages, float64(iterNs), maxWorkers, grain, shard, pol)
		return
	}
	s.runJobs(w, workload, n, nJobs, float64(iterNs), maxWorkers, grain, shard, pol, batch != 0)
}

// jobPolicy carries the per-request scheduling policy parameters: the
// tenant account, the priority class and the absolute deadline derived from
// &deadline_ms (zero time when absent).
type jobPolicy struct {
	tenant   string
	prio     int
	deadline time.Time
	noWait   bool
}

// apply stamps the policy onto a built workload request.
func (p jobPolicy) apply(req *jobs.Request) {
	req.Tenant = p.tenant
	req.Priority = p.prio
	req.Deadline = p.deadline
	req.NoWait = p.noWait
}

// parsePolicy parses the &tenant=, &prio=, &deadline_ms= and &nowait=
// parameters.
func parsePolicy(r *http.Request) (jobPolicy, error) {
	var pol jobPolicy
	pol.tenant = r.FormValue("tenant")
	if err := validTenant(pol.tenant); err != nil {
		return pol, err
	}
	prio, err := intParam(r, "prio", 0, -100, 100)
	if err != nil {
		return pol, err
	}
	pol.prio = prio
	deadlineMs, err := intParam(r, "deadline_ms", 0, 0, 1<<30)
	if err != nil {
		return pol, err
	}
	if deadlineMs > 0 {
		pol.deadline = time.Now().Add(time.Duration(deadlineMs) * time.Millisecond)
	}
	noWait, err := intParam(r, "nowait", 0, 0, 1)
	if err != nil {
		return pol, err
	}
	pol.noWait = noWait != 0
	return pol, nil
}

// overloadStatus maps an admission-shedding error to its HTTP status:
// 429 Too Many Requests for a tenant's open circuit breaker (the caller is
// being told to back off), 503 Service Unavailable for backlog and
// infeasible-deadline rejections (the service as a whole is saturated).
// ok is false for errors that are not overload rejections.
func overloadStatus(err error) (code int, ok bool) {
	switch {
	case errors.Is(err, jobs.ErrBreakerOpen):
		return http.StatusTooManyRequests, true
	case errors.Is(err, jobs.ErrBacklogged), errors.Is(err, jobs.ErrInfeasible):
		return http.StatusServiceUnavailable, true
	}
	return 0, false
}

// writeWorkloadError answers a failed workload build with 400. An unknown
// workload name gets a structured body carrying the registered names —
// clients (and humans with curl) see what the daemon actually serves
// instead of guessing from an opaque message.
func writeWorkloadError(w http.ResponseWriter, err error) {
	if !errors.Is(err, bench.ErrUnknownWorkload) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(struct {
		Error     string   `json:"error"`
		Workloads []string `json:"workloads"`
	}{err.Error(), bench.JobWorkloads()})
}

// writeOverload rejects the request with the overload status and a
// Retry-After header derived from the runtime's suggested retry delay
// (rounded up to whole seconds, at least 1, per RFC 9110).
func writeOverload(w http.ResponseWriter, err error, code int) {
	if d, ok := jobs.SuggestedRetry(err); ok {
		secs := int64(math.Ceil(d.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	http.Error(w, err.Error(), code)
}

// validTenant bounds tenant names so they can label Prometheus series
// verbatim: at most 64 characters from [A-Za-z0-9_.-]; empty selects the
// default account.
func validTenant(name string) error {
	if len(name) > 64 {
		return fmt.Errorf("parameter \"tenant\": name longer than 64 characters")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '-':
		default:
			return fmt.Errorf("parameter \"tenant\": character %q not in [A-Za-z0-9_.-]", c)
		}
	}
	return nil
}

// parsePipeline parses the pipeline query parameter: comma-separated stages
// of the form workload[:n[:width]], executed as a dependency graph — every
// job of stage i starts only after every job of stage i-1 completed. n
// defaults to the request's n parameter, width to 1.
func parsePipeline(spec string, defaultN int) ([]pipelineStage, error) {
	parts := strings.Split(spec, ",")
	if len(parts) > maxPipelineStages {
		return nil, fmt.Errorf("pipeline has %d stages, limit %d", len(parts), maxPipelineStages)
	}
	stages := make([]pipelineStage, 0, len(parts))
	for i, part := range parts {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) > 3 || fields[0] == "" {
			return nil, fmt.Errorf("pipeline stage %d %q: want workload[:n[:width]]", i, part)
		}
		st := pipelineStage{Workload: fields[0], N: defaultN, Width: 1}
		if len(fields) >= 2 {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 || n > maxIterationsPerJob {
				return nil, fmt.Errorf("pipeline stage %d %q: bad n", i, part)
			}
			st.N = n
		}
		if len(fields) == 3 {
			width, err := strconv.Atoi(fields[2])
			if err != nil || width < 1 || width > maxJobsPerRequest {
				return nil, fmt.Errorf("pipeline stage %d %q: bad width", i, part)
			}
			st.Width = width
		}
		stages = append(stages, st)
	}
	total := 0
	for _, st := range stages {
		total += st.Width
	}
	if total > maxJobsPerRequest {
		return nil, fmt.Errorf("pipeline submits %d jobs, limit %d", total, maxJobsPerRequest)
	}
	return stages, nil
}

// runPipeline submits the whole stage graph up front — fan-out/fan-in edges
// expressed through the runtime's job dependencies, no client-side waiting
// between stages — then waits for every job and reports per-stage results.
func (s *Server) runPipeline(w http.ResponseWriter, stages []pipelineStage, iterNs float64, maxWorkers, grain, shard int, pol jobPolicy) {
	type submitted struct {
		stage, idx int
		job        *jobs.Job
	}
	// Resolve every stage's workload before submitting anything: a bad
	// stage must 400 without having already launched (and then abandoned,
	// unawaited) the earlier stages' jobs.
	reqs := make([]jobs.Request, len(stages))
	for si, st := range stages {
		params := bench.JobParams{N: st.N, IterNs: iterNs, MaxWorkers: maxWorkers, Grain: grain}
		req, err := bench.NewJobRequest(st.Workload, params)
		if err != nil {
			writeWorkloadError(w, err)
			return
		}
		pol.apply(&req)
		req.Checkpoint = s.checkpointFor(st.Workload, params)
		reqs[si] = req
	}
	var all []submitted
	var prev []*jobs.Job
	start := time.Now()
	for si := range stages {
		st := &stages[si]
		req := reqs[si]
		req.After = prev
		st.Results = make([]runJobResult, st.Width)
		var cur []*jobs.Job
		for i := 0; i < st.Width; i++ {
			var j *jobs.Job
			var err error
			if shard >= 0 {
				j, err = s.rt.SubmitTo(shard, req)
			} else {
				j, err = s.rt.Submit(req)
			}
			if err != nil {
				// An overload rejection before anything was admitted fails
				// the whole request with the backpressure status; once jobs
				// are in flight the per-job error field reports it instead.
				if code, ok := overloadStatus(err); ok && len(all) == 0 {
					writeOverload(w, err, code)
					return
				}
				st.Results[i].Error = err.Error()
				continue
			}
			cur = append(cur, j)
			all = append(all, submitted{si, i, j})
		}
		prev = cur
	}
	var wg sync.WaitGroup
	for _, sub := range all {
		wg.Add(1)
		go func(sub submitted) {
			defer wg.Done()
			v, err := sub.job.Wait()
			res := &stages[sub.stage].Results[sub.idx]
			// Like the plain /run path: seconds from request start to this
			// job's completion — for a dependent job that includes the time
			// spent blocked behind its upstreams.
			res.Seconds = time.Since(start).Seconds()
			res.Job = traceID(sub.job)
			res.Workers = sub.job.Workers()
			res.Result = v
			if err != nil {
				res.Error = err.Error()
			}
		}(sub)
	}
	wg.Wait()
	resp := runResponse{Pipeline: stages, Jobs: len(all), WallSeconds: time.Since(start).Seconds()}
	writeJSON(w, resp)
}

// runJobs performs the fan-out/fan-in of one /run request. The workload is
// built (and, for calibrated workloads, calibrated) exactly once and the
// request value reused for every job: request bodies are stateless, and the
// calibration cache in bench keeps repeat requests off the measurement path.
// With batch set the whole fan-out is admitted through SubmitBatch — one
// queue-lock acquisition for all nJobs — instead of nJobs Submit calls; the
// response body is identical either way.
func (s *Server) runJobs(w http.ResponseWriter, workload string, n, nJobs int, iterNs float64, maxWorkers, grain, shard int, pol jobPolicy, batch bool) {
	params := bench.JobParams{N: n, IterNs: iterNs, MaxWorkers: maxWorkers, Grain: grain}
	req, err := bench.NewJobRequest(workload, params)
	if err != nil {
		writeWorkloadError(w, err)
		return
	}
	pol.apply(&req)
	if !batch {
		// Durable snapshot template (nil without a checkpoint store; every
		// job copies it and fills its own id). Batched admission stays
		// non-durable: SubmitBatch rejects checkpointed requests.
		req.Checkpoint = s.checkpointFor(workload, params)
	}
	resp := runResponse{Workload: workload, Jobs: nJobs, Iterations: n, Results: make([]runJobResult, nJobs)}
	start := time.Now()
	var wg sync.WaitGroup
	await := func(i int, j *jobs.Job) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobStart := time.Now()
			v, err := j.Wait()
			resp.Results[i].Seconds = time.Since(jobStart).Seconds()
			resp.Results[i].Job = traceID(j)
			resp.Results[i].Workers = j.Workers()
			resp.Results[i].Result = v
			if err != nil {
				resp.Results[i].Error = err.Error()
			}
		}()
	}
	if batch {
		reqs := make([]jobs.Request, nJobs)
		for i := range reqs {
			reqs[i] = req
		}
		out := make([]*jobs.Job, nJobs)
		if shard >= 0 {
			// A pinned batch goes to the pinned shard's scheduler directly,
			// mirroring SubmitTo.
			err = s.rt.Shard(shard).SubmitBatch(reqs, out)
		} else {
			err = s.rt.SubmitBatch(reqs, out)
		}
		if err != nil {
			admitted := false
			for _, j := range out {
				if j != nil {
					admitted = true
					break
				}
			}
			if code, ok := overloadStatus(err); ok && !admitted {
				writeOverload(w, err, code)
				return
			}
		}
		for i, j := range out {
			if j == nil {
				if err != nil {
					resp.Results[i].Error = err.Error()
				}
				continue
			}
			await(i, j)
		}
	} else {
		for i := 0; i < nJobs; i++ {
			var j *jobs.Job
			if shard >= 0 {
				j, err = s.rt.SubmitTo(shard, req)
			} else {
				j, err = s.rt.Submit(req)
			}
			if err != nil {
				// Same contract as the pipeline path: shed before anything
				// was admitted → reject the whole request with 429/503 and
				// Retry-After; partial fan-outs report per-job errors.
				if code, ok := overloadStatus(err); ok && i == 0 {
					writeOverload(w, err, code)
					return
				}
				resp.Results[i].Error = err.Error()
				continue
			}
			await(i, j)
		}
	}
	wg.Wait()
	resp.WallSeconds = time.Since(start).Seconds()
	writeJSON(w, resp)
}

// statsResponse is the JSON body of /stats. Queue carries the merged totals
// (stable field names from the pre-sharding daemon); Shards the per-shard
// snapshots in shard order. SnapshotSeq increments on every scrape, so a
// poller can detect reordered or duplicated reads.
type statsResponse struct {
	SnapshotSeq   uint64       `json:"snapshot_seq"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Workloads     []string     `json:"workloads"`
	Shards        int          `json:"shards"`
	Queue         jobs.Stats   `json:"queue"`
	ShardStats    []jobs.Stats `json:"shard_stats"`
	Runtime       runtimeStats `json:"runtime"`
	// RecoveredJobs counts the jobs re-admitted from the checkpoint store at
	// startup (always 0 without -checkpoint-dir).
	RecoveredJobs int64              `json:"recovered_jobs"`
	Trace         *trace.TracerStats `json:"trace,omitempty"`
}

// runtimeStats is the Go-runtime health block of /stats.
type runtimeStats struct {
	Goroutines          int     `json:"goroutines"`
	HeapAllocBytes      uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes        uint64  `json:"heap_sys_bytes"`
	NumGC               uint32  `json:"num_gc"`
	GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
}

func readRuntimeStats() runtimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeStats{
		Goroutines:          runtime.NumGoroutine(),
		HeapAllocBytes:      m.HeapAlloc,
		HeapSysBytes:        m.HeapSys,
		NumGC:               m.NumGC,
		GCPauseTotalSeconds: time.Duration(m.PauseTotalNs).Seconds(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.rt.Stats()
	resp := statsResponse{
		SnapshotSeq:   s.statsSeq.Add(1),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workloads:     bench.JobWorkloads(),
		Shards:        s.rt.Shards(),
		Queue:         st.Total,
		ShardStats:    st.Shards,
		Runtime:       readRuntimeStats(),
		RecoveredJobs: s.recovered.Load(),
	}
	if s.tracer != nil {
		ts := s.tracer.Stats()
		resp.Trace = &ts
	}
	writeJSON(w, resp)
}

// handleEvents streams lifecycle events as server-sent events: one SSE
// message per transition, `event:` naming the type, `id:` the tracer
// sequence number and `data:` the JSON event. ?tenant= and ?job= filter at
// the tracer (unmatched events are never buffered); ?buffer= overrides the
// per-subscriber buffer. A subscriber that falls behind loses events rather
// than slowing the runtime: drops are counted and reported inline as an SSE
// comment when delivery resumes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.Error(w, "tracing disabled (run loopd with -trace)", http.StatusNotFound)
		return
	}
	tenant := r.FormValue("tenant")
	if err := validTenant(tenant); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var jobID uint64
	if raw := r.FormValue("job"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("parameter %q: %v", "job", err), http.StatusBadRequest)
			return
		}
		jobID = v
	}
	buffer, err := intParam(r, "buffer", s.traceBuffer, 1, 1<<16)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.tracer.Subscribe(buffer, tenant, jobID)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	// Heartbeat for idle streams: proxies and load balancers tear down
	// connections that stay silent, and an SSE comment is invisible to event
	// consumers. The ticker is not reset on real events — an occasional
	// redundant heartbeat on a busy stream is two bytes, while resetting per
	// event would put a timer op on every delivery.
	ka := time.NewTicker(s.keepalive)
	defer ka.Stop()
	var reported int64
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ka.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case ev := <-sub.Events():
			if d := sub.Dropped(); d > reported {
				fmt.Fprintf(w, ": dropped %d events (slow subscriber)\n\n", d-reported)
				reported = d
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
			fl.Flush()
		}
	}
}

// handleTrace serves a finished job's span tree as OTLP-compatible JSON
// (resourceSpans/scopeSpans/spans with hex ids, suitable for an OTLP/HTTP
// collector's traces endpoint or offline span tooling).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.Error(w, "tracing disabled (run loopd with -trace)", http.StatusNotFound)
		return
	}
	id, err := strconv.ParseUint(r.PathValue("job"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad job id: %v", err), http.StatusBadRequest)
		return
	}
	jt := s.tracer.Trace(id)
	if jt == nil {
		http.Error(w, fmt.Sprintf("no finished trace for job %d (still running, never traced, or evicted)", id), http.StatusNotFound)
		return
	}
	writeJSON(w, jt.OTLP("loopd"))
}

// handleMetrics renders the runtime's state in the Prometheus text
// exposition format (hand-rolled: the daemon has no dependencies outside
// the standard library). The loopd_* series are pool-wide totals with the
// pre-sharding names; the loopd_shard_* series carry a shard label so a
// scrape can attribute load, stealing and latency to topology domains.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.rt.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	histogram := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	tot := st.Total
	gauge("loopd_shards", "number of topology shards in the pool", float64(s.rt.Shards()))
	gauge("loopd_workers", "size of the shared worker team", float64(tot.Workers))
	gauge("loopd_busy_workers", "workers currently executing a job share", float64(tot.BusyWorkers))
	gauge("loopd_queue_depth", "jobs waiting for admission", float64(tot.QueueDepth))
	gauge("loopd_blocked_depth", "jobs parked waiting for pipeline dependencies (not in any admission queue)", float64(tot.BlockedDepth))
	gauge("loopd_jobs_running", "jobs currently admitted and running", float64(tot.Running))
	counter("loopd_jobs_submitted_total", "jobs ever submitted", float64(tot.Submitted))
	counter("loopd_jobs_completed_total", "jobs ever completed", float64(tot.Completed))
	counter("loopd_jobs_canceled_total", "jobs canceled before start", float64(tot.Canceled))
	counter("loopd_jobs_released_total", "blocked jobs released into an admission queue by their last upstream's join wave", float64(tot.Released))
	counter("loopd_jobs_depcanceled_total", "blocked jobs canceled by upstream cancellation propagating down the dependency graph", float64(tot.DepCanceled))
	counter("loopd_iterations_total", "loop iterations ever executed", float64(tot.IterationsDone))
	counter("loopd_workers_grown_total", "workers that joined an already-running job (elastic growth)", float64(tot.Grown))
	counter("loopd_workers_peeled_total", "workers that left a running job to serve waiting tenants (elastic shrink)", float64(tot.Peeled))
	counter("loopd_jobs_stolen_total", "whole queued jobs migrated to an idle sibling shard", float64(tot.Stolen))
	counter("loopd_workers_lent_total", "workers lent to a sibling shard's running elastic job", float64(tot.Lent))
	counter("loopd_jobs_preempted_total", "preemption targets posted against running jobs to serve waiting tenants", float64(tot.Preempted))
	counter("loopd_jobs_deadline_missed_total", "jobs completed after their requested deadline", float64(tot.DeadlineMissed))
	counter("loopd_jobs_shed_total", "submissions rejected by admission control (infeasible deadline, full backlog or open breaker)", float64(tot.ShedTotal))
	counter("loopd_jobs_infeasible_total", "submissions rejected because the deadline could not be met at the measured service rate", float64(tot.InfeasibleTotal))
	counter("loopd_jobs_backlogged_total", "submissions rejected because the admission queue stayed full past the wait bound", float64(tot.BackloggedTotal))
	gauge("loopd_jobs_suspended_depth", "jobs currently parked in the suspended state (outside every admission queue)", float64(tot.SuspendedDepth))
	counter("loopd_jobs_suspended_total", "jobs ever parked by a suspend", float64(tot.SuspendedTotal))
	counter("loopd_jobs_resumed_total", "suspended jobs ever re-admitted by a resume", float64(tot.ResumedTotal))
	counter("loopd_checkpoint_writes_total", "progress snapshots written to the checkpoint store", float64(tot.CheckpointWrites))
	counter("loopd_checkpoint_failures_total", "checkpoint store operations that failed (job kept running, recoverability degraded)", float64(tot.CheckpointFailures))
	counter("loopd_jobs_recovered_total", "jobs re-admitted from the checkpoint store at startup", float64(s.recovered.Load()))
	gauge("loopd_uptime_seconds", "seconds since the daemon started", time.Since(s.started).Seconds())

	// Build identity as the conventional constant-1 info gauge.
	goVersion, revision := buildIdentity()
	fmt.Fprintf(w, "# HELP loopd_build_info build metadata of the running daemon\n# TYPE loopd_build_info gauge\n")
	fmt.Fprintf(w, "loopd_build_info{go_version=%q,revision=%q} 1\n", goVersion, revision)

	if s.tracer != nil {
		trs := s.tracer.Stats()
		counter("loopd_trace_events_total", "lifecycle events ever emitted by the tracer", float64(trs.EventsTotal))
		counter("loopd_trace_events_dropped_total", "event deliveries lost to full subscriber buffers", float64(trs.DroppedTotal))
		gauge("loopd_trace_subscribers", "live /events subscriptions", float64(trs.Subscribers))
		gauge("loopd_trace_finished_traces", "finished job traces held for GET /trace/{job}", float64(trs.FinishedTraces))
	}
	histogram("loopd_job_latency_seconds", "job latency from submission to completion")
	tot.Latency.WritePrometheus(w, "loopd_job_latency_seconds", "")
	histogram("loopd_job_run_seconds", "job run time from admission to completion")
	tot.Run.WritePrometheus(w, "loopd_job_run_seconds", "")

	// Per-tenant series, labelled by tenant account name. The counters
	// reconcile with the untagged totals: every job is charged to exactly
	// one account ("default" when the request named none), so the sums over
	// the tenant label equal loopd_jobs_submitted_total,
	// loopd_jobs_completed_total and loopd_iterations_total.
	tenantNames := make([]string, 0, len(tot.Tenants))
	for name := range tot.Tenants {
		tenantNames = append(tenantNames, name)
	}
	sort.Strings(tenantNames)
	tenantMetric := func(name, typ, help string, field func(jobs.TenantStats) float64) {
		if len(tenantNames) == 0 {
			return
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, tn := range tenantNames {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, tn, field(tot.Tenants[tn]))
		}
	}
	tenantMetric("loopd_tenant_weight", "gauge", "configured fair-share weight of the tenant",
		func(t jobs.TenantStats) float64 { return float64(t.Weight) })
	tenantMetric("loopd_tenant_queue_depth", "gauge", "tenant jobs waiting for admission",
		func(t jobs.TenantStats) float64 { return float64(t.QueueDepth) })
	tenantMetric("loopd_tenant_jobs_submitted_total", "counter", "jobs ever submitted by the tenant",
		func(t jobs.TenantStats) float64 { return float64(t.Submitted) })
	tenantMetric("loopd_tenant_jobs_completed_total", "counter", "tenant jobs ever completed (served)",
		func(t jobs.TenantStats) float64 { return float64(t.Completed) })
	tenantMetric("loopd_tenant_iterations_total", "counter", "loop iterations served to the tenant",
		func(t jobs.TenantStats) float64 { return float64(t.IterationsDone) })
	tenantMetric("loopd_tenant_preempted_total", "counter", "preemption targets posted against the tenant's running jobs",
		func(t jobs.TenantStats) float64 { return float64(t.Preempted) })
	tenantMetric("loopd_tenant_deadline_missed_total", "counter", "tenant jobs completed after their deadline",
		func(t jobs.TenantStats) float64 { return float64(t.DeadlineMissed) })
	tenantMetric("loopd_tenant_wait_seconds_sum", "counter", "cumulative submission-to-admission wait of the tenant's completed jobs",
		func(t jobs.TenantStats) float64 { return t.WaitSumSeconds })
	tenantMetric("loopd_tenant_run_seconds_sum", "counter", "cumulative admission-to-completion run time of the tenant's completed jobs",
		func(t jobs.TenantStats) float64 { return t.RunSumSeconds })
	tenantMetric("loopd_tenant_deadline_jobs_total", "counter", "tenant jobs ever completed that carried a deadline (hits plus misses; loopd_tenant_deadline_missed_total counts the misses)",
		func(t jobs.TenantStats) float64 { return float64(t.DeadlineJobsTotal) })
	tenantMetric("loopd_tenant_shed_total", "counter", "tenant submissions rejected by admission control",
		func(t jobs.TenantStats) float64 { return float64(t.ShedTotal) })

	// Breaker state, numeric so it can be alerted on: 0 closed, 1 half-open
	// (probing for recovery), 2 open (shedding). Emitted only when the
	// breakers are armed — an absent series means "breakers disabled".
	breakerNames := make([]string, 0, len(tenantNames))
	for _, tn := range tenantNames {
		if tot.Tenants[tn].BreakerState != "" {
			breakerNames = append(breakerNames, tn)
		}
	}
	if len(breakerNames) > 0 {
		fmt.Fprintf(w, "# HELP loopd_tenant_breaker_state circuit breaker state of the tenant (0 closed, 1 half-open, 2 open)\n# TYPE loopd_tenant_breaker_state gauge\n")
		for _, tn := range breakerNames {
			v := 0.0
			switch tot.Tenants[tn].BreakerState {
			case "half-open":
				v = 1
			case "open":
				v = 2
			}
			fmt.Fprintf(w, "loopd_tenant_breaker_state{tenant=%q} %g\n", tn, v)
		}
	}

	// SLO series, derived from each tenant's rolling completion window (the
	// slo block of /stats). Tenants whose window is still empty are skipped:
	// an absent series is "no data yet", a 0 would be a false alarm.
	sloNames := make([]string, 0, len(tenantNames))
	for _, tn := range tenantNames {
		if tot.Tenants[tn].SLO != nil {
			sloNames = append(sloNames, tn)
		}
	}
	sloMetric := func(name, typ, help string, field func(*jobs.TenantSLO) float64) {
		if len(sloNames) == 0 {
			return
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, tn := range sloNames {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, tn, field(tot.Tenants[tn].SLO))
		}
	}
	// The configured objective, not sampled from any tenant's window: it is
	// a property of the daemon, present from the first scrape (before any
	// completion) and independent of which tenants happen to have samples.
	gauge("loopd_slo_target", "deadline-hit objective burn rates are measured against", s.sloTarget)
	sloMetric("loopd_slo_window_jobs", "gauge", "completions in the tenant's rolling SLO window",
		func(s *jobs.TenantSLO) float64 { return float64(s.WindowJobs) })
	sloMetric("loopd_slo_deadline_hit_ratio", "gauge", "windowed deadline-hit ratio of the tenant (1 when the window has no deadline jobs)",
		func(s *jobs.TenantSLO) float64 { return s.HitRatio })
	sloMetric("loopd_slo_burn_rate", "gauge", "windowed error-budget burn rate of the tenant (1.0 = burning exactly at the sustainable rate)",
		func(s *jobs.TenantSLO) float64 { return s.BurnRate })
	sloMetric("loopd_slo_wait_p99_seconds", "gauge", "windowed p99 submission-to-admission wait of the tenant",
		func(s *jobs.TenantSLO) float64 { return s.WaitP99 })
	sloMetric("loopd_slo_run_p99_seconds", "gauge", "windowed p99 admission-to-completion run time of the tenant",
		func(s *jobs.TenantSLO) float64 { return s.RunP99 })

	// Per-shard series, labelled by shard id (= topology group index).
	shardMetric := func(name, typ, help string, field func(jobs.Stats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i, sh := range st.Shards {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %g\n", name, i, field(sh))
		}
	}
	shardGauge := func(name, help string, field func(jobs.Stats) float64) {
		shardMetric(name, "gauge", help, field)
	}
	shardCounter := func(name, help string, field func(jobs.Stats) float64) {
		shardMetric(name, "counter", help, field)
	}
	shardGauge("loopd_shard_workers", "workers owned by the shard", func(s jobs.Stats) float64 { return float64(s.Workers) })
	shardGauge("loopd_shard_busy_workers", "shard workers currently executing a job share", func(s jobs.Stats) float64 { return float64(s.BusyWorkers) })
	shardGauge("loopd_shard_queue_depth", "jobs waiting for admission on the shard", func(s jobs.Stats) float64 { return float64(s.QueueDepth) })
	shardGauge("loopd_shard_blocked_depth", "jobs submitted to the shard parked waiting for dependencies", func(s jobs.Stats) float64 { return float64(s.BlockedDepth) })
	shardGauge("loopd_shard_jobs_running", "jobs currently running on the shard", func(s jobs.Stats) float64 { return float64(s.Running) })
	shardCounter("loopd_shard_jobs_submitted_total", "jobs ever submitted to the shard (a stolen job completes elsewhere)", func(s jobs.Stats) float64 { return float64(s.Submitted) })
	shardCounter("loopd_shard_jobs_completed_total", "jobs ever completed by the shard", func(s jobs.Stats) float64 { return float64(s.Completed) })
	shardCounter("loopd_shard_iterations_total", "loop iterations executed by the shard", func(s jobs.Stats) float64 { return float64(s.IterationsDone) })
	shardCounter("loopd_shard_jobs_stolen_total", "whole queued jobs the shard stole from siblings", func(s jobs.Stats) float64 { return float64(s.Stolen) })
	shardCounter("loopd_shard_workers_lent_total", "workers the shard lent to siblings' jobs", func(s jobs.Stats) float64 { return float64(s.Lent) })
	shardCounter("loopd_shard_jobs_released_total", "blocked jobs of the shard released by their upstreams", func(s jobs.Stats) float64 { return float64(s.Released) })
	shardCounter("loopd_shard_jobs_depcanceled_total", "blocked jobs of the shard canceled by upstream propagation", func(s jobs.Stats) float64 { return float64(s.DepCanceled) })
	shardCounter("loopd_shard_workers_grown_total", "workers that joined running jobs on the shard", func(s jobs.Stats) float64 { return float64(s.Grown) })
	shardCounter("loopd_shard_workers_peeled_total", "workers that peeled off running jobs on the shard", func(s jobs.Stats) float64 { return float64(s.Peeled) })
	histogram("loopd_shard_job_latency_seconds", "per-shard job latency from submission to completion")
	for i := range st.Shards {
		st.Shards[i].Latency.WritePrometheus(w, "loopd_shard_job_latency_seconds", fmt.Sprintf("shard=\"%d\"", i))
	}
	histogram("loopd_shard_job_run_seconds", "per-shard job run time from admission to completion")
	for i := range st.Shards {
		st.Shards[i].Run.WritePrometheus(w, "loopd_shard_job_run_seconds", fmt.Sprintf("shard=\"%d\"", i))
	}
}

// ParseTenantWeights parses loopd's -tenants flag: a comma-separated list
// of tenant weights, either named ("gold=3,bronze=1") or bare ("3,1", which
// registers tenants t1, t2, ... in order). Weights must be positive
// integers. An empty spec yields no registrations.
func ParseTenantWeights(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, wstr, named := strings.Cut(part, "=")
		if !named {
			name, wstr = fmt.Sprintf("t%d", i+1), part
		} else if name == "" {
			return nil, fmt.Errorf("tenants: entry %q has an empty name", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(wstr))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenants: entry %q: weight must be a positive integer", part)
		}
		out[name] = w
	}
	return out, nil
}

// intParam parses an integer query parameter with a default and inclusive
// bounds.
func intParam(r *http.Request, name string, def, min, max int) (int, error) {
	raw := r.FormValue(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	if v < min || v > max {
		return 0, fmt.Errorf("parameter %q = %d out of range [%d, %d]", name, v, min, max)
	}
	return v, nil
}

// buildIdentity extracts the go toolchain version and VCS revision from the
// binary's embedded build info ("unknown" when built without VCS stamping,
// as in `go test`).
func buildIdentity() (goVersion, revision string) {
	goVersion, revision = runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	return goVersion, revision
}

// jsonBufPool recycles response-encoding buffers across requests: the /run
// hot path re-encodes structurally identical bodies per request, so encoding
// into a pooled buffer and writing once keeps the handler allocation-light
// and the response a single Write. Buffers that grew beyond
// maxPooledBufBytes are dropped rather than pinned.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBufBytes = 1 << 20

func writeJSON(w http.ResponseWriter, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBufBytes {
		jsonBufPool.Put(buf)
	}
}
