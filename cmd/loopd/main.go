// Command loopd is a long-lived daemon serving parallel-loop jobs over HTTP:
// the multi-tenant front-end of the half-barrier loop scheduler. The worker
// set is partitioned into per-topology-domain shards, each with its own
// dispatcher; requests are admitted to the least-loaded shard, idle shards
// steal queued jobs and lend workers across shards, and every job completes
// through a per-job half-barrier join wave — the daemon never pays a full
// barrier, and no lock or queue is shared by all shards on the serving path.
//
// Endpoints:
//
//	POST /run?workload=spin&n=4096&jobs=8   submit and await jobs of a named
//	                                        workload (see GET /stats for names;
//	                                        &shard=i pins to one shard;
//	                                        &tenant=name charges a weighted
//	                                        fair-share account, &prio=p sets
//	                                        the strict admission priority and
//	                                        &deadline_ms=d the completion
//	                                        deadline used for EDF ordering
//	                                        and deadline-risk preemption;
//	                                        &nowait=1 fails fast with 503 +
//	                                        Retry-After instead of blocking
//	                                        when the admission queue is full)
//	POST /run?pipeline=spin:4096,sum:1024:4,sum:512
//	                                        submit a pipeline of named
//	                                        workload stages (workload[:n[:width]]
//	                                        each): the whole stage graph is
//	                                        submitted up front and every job of
//	                                        a stage starts only after every job
//	                                        of the previous stage completes
//	                                        (fan-out/fan-in dependencies inside
//	                                        the runtime, no client-side waits)
//	GET  /stats                             queue depth, blocked depth,
//	                                        occupancy, job latency percentiles,
//	                                        per-tenant SLO windows, Go-runtime
//	                                        health and tracer accounting as
//	                                        JSON, totals plus per-shard; every
//	                                        scrape carries a monotonic
//	                                        snapshot_seq
//	GET  /metrics                           the same in Prometheus text format
//	                                        (loopd_* totals, loopd_shard_*
//	                                        shard-labelled, loopd_tenant_* and
//	                                        loopd_slo_* tenant-labelled,
//	                                        loopd_build_info, loopd_trace_*)
//	GET  /events                            live lifecycle event feed as
//	                                        server-sent events (&tenant= and
//	                                        &job= filter; &buffer= sizes the
//	                                        per-subscriber buffer — a slow
//	                                        consumer drops events, counted,
//	                                        never blocking the runtime)
//	GET  /trace/{job}                       a finished job's span tree as
//	                                        OTLP-compatible JSON (job ids come
//	                                        from /run responses and /events)
//	POST /jobs/{job}/suspend                park an in-flight job at its next
//	                                        chunk-wave boundary with progress
//	                                        checkpointed (needs tracing; with
//	                                        -checkpoint-dir the snapshot is
//	                                        durable and survives restarts)
//	POST /jobs/{job}/resume                 re-admit a suspended job from its
//	                                        checkpointed cursor watermark,
//	                                        same job id, one continuous trace
//	GET  /debug/pprof/                      Go profiling handlers (-debug only)
package main

import (
	"flag"
	"log"
	"net/http"

	"loopsched/internal/loopd"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "total worker count across all shards (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "topology shards, each with its own dispatcher (0 = one per cache/socket group)")
	stealEvery := flag.Duration("steal-interval", 0, "idle shards' sibling re-scan period (0 = default 200µs)")
	noSteal := flag.Bool("no-steal", false, "disable cross-shard job stealing and worker lending")
	maxPerJob := flag.Int("max-workers-per-job", 0, "sub-team cap per job (0 = no cap)")
	queue := flag.Int("queue", 0, "total admission queue depth, split across shards (0 = default)")
	grain := flag.Int("grain", 0, "default self-scheduling chunk size in iterations (0 = heuristic)")
	tenants := flag.String("tenants", "", "tenant fair-share weights: name=w,... or bare w1,w2,... (registers t1,t2,...)")
	fair := flag.Bool("fair", true, "weighted-fair admission with priorities, deadlines and preemption (false = plain FIFO)")
	lock := flag.Bool("lock-os-threads", false, "pin workers to OS threads")
	traceOn := flag.Bool("trace", true, "lifecycle tracing: job ids in /run responses, /events stream, /trace/{job} span trees")
	traceBuffer := flag.Int("trace-buffer", 4096, "default per-subscriber /events buffer (slow subscribers drop, never block)")
	traceCap := flag.Int("trace-capacity", 0, "finished job traces retained for /trace/{job} (0 = default 1024)")
	sloTarget := flag.Float64("slo-target", 0, "per-tenant deadline-hit objective for burn rates (0 = default 0.99)")
	maxWait := flag.Duration("max-wait", 0, "bound on blocking for an admission queue slot before rejecting with 503 + Retry-After (0 = block indefinitely)")
	shed := flag.Bool("shed", false, "reject deadline jobs whose deadline cannot be met at the measured service rate (503 + Retry-After) instead of admitting them to miss")
	breakerBurn := flag.Float64("breaker-burn", 0, "per-tenant circuit breaker SLO burn-rate limit: at/above it a queue-crowding tenant is shed with 429 + Retry-After (0 = breakers off)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker sheds before probing for recovery (0 = default 250ms)")
	debugHandlers := flag.Bool("debug", false, "serve the net/http/pprof handlers under /debug/pprof/")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for the checkpoint WAL: enables POST /jobs/{job}/suspend|resume durability and crash recovery of unfinished jobs at startup (forces -trace)")
	eventsKeepalive := flag.Duration("events-keepalive", 0, "idle heartbeat period of the /events SSE stream (0 = default 15s)")
	flag.Parse()

	weights, err := loopd.ParseTenantWeights(*tenants)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := loopd.New(loopd.Config{
		Workers:          *workers,
		Shards:           *shards,
		StealInterval:    *stealEvery,
		DisableStealing:  *noSteal,
		MaxWorkersPerJob: *maxPerJob,
		QueueDepth:       *queue,
		DefaultGrain:     *grain,
		TenantWeights:    weights,
		DisableFair:      !*fair,
		LockOSThread:     *lock,
		Trace:            *traceOn,
		TraceBuffer:      *traceBuffer,
		TraceCapacity:    *traceCap,
		SLOTarget:        *sloTarget,
		MaxWait:          *maxWait,
		ShedInfeasible:   *shed,
		BreakerBurnRate:  *breakerBurn,
		BreakerCooldown:  *breakerCooldown,
		Debug:            *debugHandlers,
		CheckpointDir:    *checkpointDir,
		EventsKeepalive:  *eventsKeepalive,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	rt := srv.Runtime()
	log.Printf("loopd: serving on %s with %d workers across %d shards (%s)",
		*addr, rt.P(), rt.Shards(), rt.Topology())
	if err := http.ListenAndServe(*addr, srv); err != nil {
		log.Fatal(err)
	}
}
