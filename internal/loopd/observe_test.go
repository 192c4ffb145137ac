package loopd

// Observability endpoint tests: the /events SSE feed (causal order, tenant
// filtering, slow-subscriber drops, 404 when tracing is off), the
// /trace/{job} span trees, the snapshot-sequenced /stats runtime block, and
// the build-info / SLO metric families.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loopsched/internal/schedtest"
	"loopsched/internal/trace"
)

func newTracedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Trace = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	// Close the runtime first: it cancels parked jobs, so a /run still in
	// flight after a failed test answers and the listener can drain.
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, ts
}

// eventStream is an open /events SSE connection. Obtain one with openEvents
// BEFORE submitting the work whose events the test needs: the subscription is
// live once openEvents returns (the 200 header is written after the server
// registers it), so nothing emitted afterwards is missed.
type eventStream struct {
	t      *testing.T
	cancel context.CancelFunc
	body   io.ReadCloser
	sc     *bufio.Scanner
}

func openEvents(t *testing.T, url, query string) *eventStream {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/events"+query, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("/events status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		cancel()
		t.Fatalf("/events Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	s := &eventStream{t: t, cancel: cancel, body: resp.Body, sc: sc}
	t.Cleanup(s.close)
	return s
}

func (s *eventStream) close() {
	s.cancel()
	s.body.Close()
}

// collect decodes SSE frames until done returns true; it fails the test if
// the stream ends (disconnect or the 30s connection deadline) first.
func (s *eventStream) collect(done func([]trace.StreamEvent) bool) []trace.StreamEvent {
	s.t.Helper()
	var events []trace.StreamEvent
	for !done(events) && s.sc.Scan() {
		line := s.sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev trace.StreamEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				s.t.Fatalf("bad event payload %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	if !done(events) {
		s.t.Fatalf("stream ended after %d events without satisfying the predicate (deadline or disconnect)", len(events))
	}
	return events
}

// countType counts events of one type.
func countType(events []trace.StreamEvent, typ string) int {
	n := 0
	for _, ev := range events {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// TestEventsPipelineCausalOrder is the acceptance shape: a sharded traced
// daemon with hostile stealing runs a multi-stage pipeline (blocked jobs,
// releases, elastic churn, cross-shard steals) plus a concurrent
// high-priority deadline tenant (preemption pressure), and the /events feed
// must deliver every lifecycle transition of every job in causal order.
func TestEventsPipelineCausalOrder(t *testing.T) {
	_, ts := newTracedServer(t, Config{
		Workers:       4,
		Shards:        2,
		StealInterval: 20 * time.Microsecond,
	})

	// 1 + 4 + 2 pipeline jobs + 6 priority jobs.
	const totalJobs = 13
	finished := func(evs []trace.StreamEvent) bool {
		return countType(evs, "joined")+countType(evs, "canceled") >= totalJobs
	}

	// Subscribe before submitting anything: the feed must carry every
	// transition of every job from submission on.
	stream := openEvents(t, ts.URL, "?buffer=8192")

	runDone := make(chan error, 2)
	go func() {
		resp, err := http.Post(ts.URL+"/run?pipeline=spin:20000,sum:4096:4,sum:2048:2&tenant=pipe", "", nil)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("pipeline run status %d", resp.StatusCode)
			}
		}
		runDone <- err
	}()
	go func() {
		resp, err := http.Post(ts.URL+"/run?workload=spin&n=20000&jobs=6&tenant=urgent&prio=3&deadline_ms=1", "", nil)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("priority run status %d", resp.StatusCode)
			}
		}
		runDone <- err
	}()

	events := stream.collect(finished)
	for i := 0; i < 2; i++ {
		if err := <-runDone; err != nil {
			t.Fatal(err)
		}
	}

	schedtest.AssertEventOrder(t, events)
	for _, typ := range []string{"submitted", "blocked", "released", "admitted", "dispatched", "joined"} {
		if countType(events, typ) == 0 {
			t.Errorf("no %q events in a pipeline run", typ)
		}
	}
	if got := countType(events, "submitted"); got != totalJobs {
		t.Errorf("%d submitted events, want %d", got, totalJobs)
	}
	// Stages 2 and 3 (6 jobs) ride the dependency path.
	if got := countType(events, "released"); got != 6 {
		t.Errorf("%d released events, want 6", got)
	}
}

func TestEventsTenantFilter(t *testing.T) {
	_, ts := newTracedServer(t, Config{Workers: 4})
	finished := func(evs []trace.StreamEvent) bool { return countType(evs, "joined") >= 3 }
	stream := openEvents(t, ts.URL, "?tenant=gold")

	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		for _, q := range []string{
			"/run?workload=sum&n=2048&jobs=3&tenant=gold",
			"/run?workload=sum&n=2048&jobs=3&tenant=bronze",
		} {
			resp, err := http.Post(ts.URL+q, "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	events := stream.collect(finished)
	<-runDone
	if len(events) == 0 {
		t.Fatal("filtered feed delivered nothing")
	}
	for _, ev := range events {
		if ev.Tenant != "gold" {
			t.Fatalf("tenant filter leaked event %+v", ev)
		}
	}
	schedtest.AssertEventOrder(t, events)
}

func TestEventsSlowSubscriberDropsAndCounts(t *testing.T) {
	srv, ts := newTracedServer(t, Config{Workers: 4})
	// An unread 1-slot subscription stands in for a stalled /events client:
	// the runtime must keep going and count what it couldn't deliver.
	sub := srv.tracer.Subscribe(1, "", 0)
	defer sub.Close()

	resp, err := http.Post(ts.URL+"/run?workload=sum&n=2048&jobs=16", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if sub.Dropped() == 0 {
		t.Error("stalled subscriber reports no drops")
	}
	st := srv.tracer.Stats()
	if st.DroppedTotal == 0 {
		t.Error("tracer-wide drop counter still zero")
	}
	if st.EventsTotal == 0 {
		t.Error("no events emitted")
	}
}

func TestEventsBadParameters(t *testing.T) {
	_, ts := newTracedServer(t, Config{Workers: 2})
	for _, q := range []string{"?tenant=bad~name", "?job=nope", "?buffer=0"} {
		resp, err := http.Get(ts.URL + "/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/events%s status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestEventsAndTraceDisabledWithoutTracer(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/events", "/trace/1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "tracing disabled") {
			t.Errorf("%s body %q does not explain how to enable tracing", path, body)
		}
	}
}

func TestTraceEndpointServesOTLPSpanTree(t *testing.T) {
	_, ts := newTracedServer(t, Config{Workers: 4})
	resp, err := http.Post(ts.URL+"/run?workload=sum&n=4096&tenant=acme", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rr.Results) != 1 || rr.Results[0].Job == 0 {
		t.Fatalf("traced /run response carries no job id: %+v", rr.Results)
	}

	resp, err = http.Get(fmt.Sprintf("%s/trace/%d", ts.URL, rr.Results[0].Job))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/trace status %d: %s", resp.StatusCode, body)
	}
	var doc trace.OTLPDocument
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.ResourceSpans) != 1 {
		t.Fatalf("OTLP document has %d resourceSpans, want 1", len(doc.ResourceSpans))
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	var root *trace.OTLPSpan
	for i := range spans {
		if spans[i].Name == "job" {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatal("no job root span")
	}
	if len(root.TraceID) != 32 || len(root.SpanID) != 16 {
		t.Fatalf("root ids trace=%q span=%q, want 32/16 hex chars", root.TraceID, root.SpanID)
	}
	for _, sp := range spans {
		if sp.Name != "job" && sp.TraceID != root.TraceID {
			t.Errorf("span %q not in the root's trace", sp.Name)
		}
	}

	// Unknown and malformed ids.
	if resp, err = http.Get(ts.URL + "/trace/999999"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/trace/999999 status %d, want 404", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/trace/abc"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/trace/abc status %d, want 400", resp.StatusCode)
	}
}

func TestStatsSnapshotSeqRuntimeAndTraceBlocks(t *testing.T) {
	_, ts := newTracedServer(t, Config{Workers: 2})
	get := func() statsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	a, b := get(), get()
	if b.SnapshotSeq <= a.SnapshotSeq {
		t.Errorf("snapshot_seq not monotonic: %d then %d", a.SnapshotSeq, b.SnapshotSeq)
	}
	if b.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v", b.UptimeSeconds)
	}
	if b.Runtime.Goroutines <= 0 || b.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime block not populated: %+v", b.Runtime)
	}
	if b.Trace == nil {
		t.Fatal("traced server's /stats has no trace block")
	}

	// An untraced server omits the trace block.
	_, plain := newTestServer(t)
	resp, err := http.Get(plain.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Trace != nil {
		t.Error("untraced server's /stats has a trace block")
	}
}

func TestMetricsBuildInfoTraceAndSLOFamilies(t *testing.T) {
	_, ts := newTracedServer(t, Config{Workers: 4})
	// Deadline hits (generous budget) and misses (1ms against spin jobs) for
	// one tenant, plus deadline-less background for another.
	for _, q := range []string{
		"/run?workload=sum&n=2048&jobs=4&tenant=acme&deadline_ms=60000",
		"/run?workload=spin&n=200000&jobs=4&tenant=acme&deadline_ms=1",
		"/run?workload=sum&n=2048&jobs=2&tenant=calm",
	} {
		resp, err := http.Post(ts.URL+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	types, samples := parseExposition(t, string(body))

	// Build info: constant-1 gauge with go_version/revision labels.
	if types["loopd_build_info"] != "gauge" {
		t.Errorf("loopd_build_info type %q, want gauge", types["loopd_build_info"])
	}
	foundBuild := false
	for series, v := range samples {
		if strings.HasPrefix(series, "loopd_build_info{") {
			foundBuild = true
			if v != 1 {
				t.Errorf("%s = %g, want 1", series, v)
			}
			if !strings.Contains(series, "go_version=") || !strings.Contains(series, "revision=") {
				t.Errorf("build info series %q missing labels", series)
			}
		}
	}
	if !foundBuild {
		t.Error("no loopd_build_info sample")
	}

	// Tracer accounting.
	if samples["loopd_trace_events_total"] == 0 {
		t.Error("loopd_trace_events_total is zero after traced runs")
	}
	if _, ok := samples["loopd_trace_finished_traces"]; !ok {
		t.Error("no loopd_trace_finished_traces sample")
	}

	// SLO families: acme ran 8 deadline jobs, of which the 1ms batch missed.
	deadlineJobs := samples[`loopd_tenant_deadline_jobs_total{tenant="acme"}`]
	missed := samples[`loopd_tenant_deadline_missed_total{tenant="acme"}`]
	if deadlineJobs != 8 {
		t.Errorf("acme deadline jobs = %g, want 8", deadlineJobs)
	}
	if missed == 0 || missed > deadlineJobs {
		t.Errorf("acme deadline missed = %g (of %g)", missed, deadlineJobs)
	}
	hitRatio := samples[`loopd_slo_deadline_hit_ratio{tenant="acme"}`]
	// The window covers all of acme's completions, so the ratio reconciles
	// with the cumulative counters exactly.
	wantRatio := (deadlineJobs - missed) / deadlineJobs
	if diff := hitRatio - wantRatio; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("acme hit ratio %g does not reconcile with counters (want %g)", hitRatio, wantRatio)
	}
	burn := samples[`loopd_slo_burn_rate{tenant="acme"}`]
	wantBurn := (1 - wantRatio) / (1 - samples["loopd_slo_target"])
	if diff := burn - wantBurn; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("acme burn rate %g, want %g", burn, wantBurn)
	}
	// A tenant with no deadline jobs shows an unexercised (healthy) SLO.
	if v := samples[`loopd_slo_deadline_hit_ratio{tenant="calm"}`]; v != 1 {
		t.Errorf("calm hit ratio = %g, want 1", v)
	}
	if v := samples[`loopd_slo_burn_rate{tenant="calm"}`]; v != 0 {
		t.Errorf("calm burn rate = %g, want 0", v)
	}
	if samples[`loopd_slo_window_jobs{tenant="acme"}`] != 8 {
		t.Errorf("acme window jobs = %g, want 8", samples[`loopd_slo_window_jobs{tenant="acme"}`])
	}
	if types["loopd_slo_burn_rate"] != "gauge" || types["loopd_tenant_deadline_jobs_total"] != "counter" {
		t.Errorf("SLO metric types wrong: %q/%q", types["loopd_slo_burn_rate"], types["loopd_tenant_deadline_jobs_total"])
	}
	if samples[`loopd_tenant_run_seconds_sum{tenant="acme"}`] <= 0 {
		t.Error("loopd_tenant_run_seconds_sum not populated")
	}
}

func TestDebugPprofGatedByFlag(t *testing.T) {
	srv, err := New(Config{Workers: 2, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		srv.Close()
		ts.Close()
	}()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d with -debug, want 200", resp.StatusCode)
	}

	_, plain := newTestServer(t)
	resp, err = http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pprof/ status %d without -debug, want 404", resp.StatusCode)
	}
}
