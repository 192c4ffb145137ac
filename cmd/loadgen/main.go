// Command loadgen drives a loopd daemon with trace-shaped traffic: a
// deterministic load generator for capacity tests, regression benches and
// overload drills.
//
// Traffic comes from one of two sources: a synthesized trace (-profile and
// -seed; diurnal curves, flash crowds, heavy-tailed job sizes, adversarial
// deadline-spamming tenants, mixed pipeline+scalar traffic — the same
// distributions the invariant harness draws from) or a recorded trace file
// (-replay). Either way the op stream is a pure function of its source: the
// same seed or file always submits the same requests, so a run reproduces.
//
// The target is a live daemon (-url) or an in-process one (-selfserve),
// which serves the exact production handler over a loopback listener — no
// separate process, same code path as cmd/loopd.
//
// Usage:
//
//	loadgen -selfserve -profile mixed -seed 1 -ops 400        # synthesize and run
//	loadgen -profile adversarial -record trace.jsonl          # record only
//	loadgen -url http://host:8080 -replay trace.jsonl -json BENCH_traceload.json
//
// The report (per-tenant and total goodput, latency quantiles, shed ratios)
// prints as text and, with -json, lands in a benchcmp-comparable file.
// Acceptance gates for CI: -max-transport-errors and -min-goodput, or
// BENCH_STRICT=1 to require zero transport and protocol errors and
// positive goodput.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"loopsched/internal/bench"
	"loopsched/internal/loadgen"
	"loopsched/internal/loopd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	url := flag.String("url", "", "target daemon base URL (e.g. http://127.0.0.1:8080)")
	selfserve := flag.Bool("selfserve", false, "serve an in-process loopd on a loopback listener instead of -url")
	workers := flag.Int("workers", 0, "selfserve worker count (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "selfserve admission queue depth (0 = default)")
	maxWait := flag.Duration("max-wait", 0, "selfserve bound on blocking for a queue slot (0 = block)")
	shedInfeasible := flag.Bool("shed", false, "selfserve: shed infeasible-deadline jobs")
	breakerBurn := flag.Float64("breaker-burn", 0, "selfserve per-tenant breaker burn-rate limit (0 = off)")

	seed := flag.Int64("seed", 1, "synthesis seed: the op stream is a pure function of it")
	profile := flag.String("profile", "mixed", fmt.Sprintf("traffic profile %v", loadgen.Profiles()))
	ops := flag.Int("ops", 0, "synthesized request count (0 = default 256)")
	durationMs := flag.Float64("duration-ms", 0, "synthesized trace span in trace-time ms (0 = default 10000)")
	tenants := flag.Int("tenants", 0, "synthesized tenant count (0 = default 4)")

	record := flag.String("record", "", "write the trace to this file (with no target: record only and exit)")
	replay := flag.String("replay", "", "replay this trace file instead of synthesizing")

	mode := flag.String("mode", "open", "arrival control: open (fire at trace time) or closed (one outstanding per tenant)")
	speed := flag.Float64("speed", 1, "trace-time speedup: 2 replays twice as fast")
	inflight := flag.Int("inflight", 0, "open-mode cap on concurrent requests (0 = default 256)")
	timeout := flag.Duration("timeout", 0, "overall replay budget (0 = none)")

	jsonOut := flag.String("json", "", "write the report as JSON to this file (benchcmp-comparable)")
	maxTransport := flag.Int("max-transport-errors", -1, "fail if transport errors exceed this (-1 = no gate)")
	minGoodput := flag.Float64("min-goodput", 0, "fail if total goodput (RPS) is below this (0 = no gate)")
	flag.Parse()

	var tr loadgen.Trace
	var err error
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatal(err)
		}
		tr, err = loadgen.ReadTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("replaying %s: %d ops over %.0fms (profile %q, seed %d)",
			*replay, len(tr.Ops), tr.DurationMs(), tr.Meta.Profile, tr.Meta.Seed)
	} else {
		tr, err = loadgen.Synthesize(loadgen.SynthConfig{
			Seed: *seed, Profile: *profile, Ops: *ops,
			DurationMs: *durationMs, Tenants: *tenants,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("synthesized %d ops over %.0fms (profile %q, seed %d)",
			len(tr.Ops), tr.DurationMs(), tr.Meta.Profile, tr.Meta.Seed)
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		if err := loadgen.WriteTrace(f, tr); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("recorded %d ops to %s", len(tr.Ops), *record)
		if *url == "" && !*selfserve {
			return
		}
	}

	base := *url
	if *selfserve {
		if base != "" {
			log.Fatal("-selfserve and -url are mutually exclusive")
		}
		srv, err := loopd.New(loopd.Config{
			Workers:         *workers,
			QueueDepth:      *queue,
			MaxWait:         *maxWait,
			ShedInfeasible:  *shedInfeasible,
			BreakerBurnRate: *breakerBurn,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		rt := srv.Runtime()
		log.Printf("selfserve on %s: %d workers across %d shards", base, rt.P(), rt.Shards())
	}
	if base == "" {
		log.Fatal("no target: pass -url or -selfserve (or -record alone to record)")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := loadgen.Run(ctx, tr, loadgen.RunConfig{
		BaseURL: base, Mode: *mode, Speed: *speed, MaxInflight: *inflight,
	})
	if err != nil {
		log.Fatal(err)
	}

	printReport(rep)
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut, rep); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *jsonOut)
	}

	fail := false
	if *maxTransport >= 0 && rep.Total.TransportErrors > *maxTransport {
		log.Printf("FAIL: %d transport errors > limit %d", rep.Total.TransportErrors, *maxTransport)
		fail = true
	}
	if *minGoodput > 0 && rep.Total.GoodputRPS < *minGoodput {
		log.Printf("FAIL: goodput %.1f rps < limit %.1f", rep.Total.GoodputRPS, *minGoodput)
		fail = true
	}
	if bench.Strict() {
		if rep.Total.TransportErrors > 0 {
			log.Printf("FAIL (strict): %d transport errors", rep.Total.TransportErrors)
			fail = true
		}
		if rep.Total.ProtocolErrors > 0 {
			log.Printf("FAIL (strict): %d protocol errors (non-overload rejections)", rep.Total.ProtocolErrors)
			fail = true
		}
		if rep.Total.OK == 0 {
			log.Print("FAIL (strict): zero requests completed")
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
}

func printReport(rep *loadgen.Report) {
	fmt.Printf("%-12s %6s %6s %6s %6s %6s  %9s %7s %9s %9s %9s\n",
		"tenant", "ops", "ok", "shed", "proto", "xport", "good rps", "shed%", "p50 ms", "p95 ms", "p99 ms")
	row := func(name string, t loadgen.TenantReport) {
		fmt.Printf("%-12s %6d %6d %6d %6d %6d  %9.1f %6.1f%% %9.2f %9.2f %9.2f\n",
			name, t.Ops, t.OK, t.Shed, t.ProtocolErrors, t.TransportErrors,
			t.GoodputRPS, 100*t.ShedRatio, t.LatencyP50Ms, t.LatencyP95Ms, t.LatencyP99Ms)
	}
	for _, name := range rep.TenantNames() {
		row(name, rep.Tenants[name])
	}
	row("TOTAL", rep.Total)
	fmt.Printf("%d ops in %.2fs (%s mode, %gx speed)\n", rep.Ops, rep.WallSeconds, rep.Mode, rep.Speed)
}
