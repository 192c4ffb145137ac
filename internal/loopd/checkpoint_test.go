package loopd

// Serving-layer tests for checkpoint/resume: the suspend/resume endpoints
// driven over HTTP mid-flight, crash recovery across a daemon restart on a
// shared -checkpoint-dir, and the /events keepalive heartbeat that keeps
// idle SSE connections alive through proxies.

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

	"loopsched/internal/trace"
)

// TestEventsKeepaliveOnIdleStream: an /events subscriber with no traffic
// must still receive periodic ": keepalive" comment frames, so idle
// connections are not reaped by proxy or LB idle timeouts.
func TestEventsKeepaliveOnIdleStream(t *testing.T) {
	_, ts := newTracedServer(t, Config{Workers: 2, EventsKeepalive: 20 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events status %d", resp.StatusCode)
	}
	// No jobs are submitted: every non-blank line on this stream must be the
	// keepalive comment, and at least two must arrive (periodic, not one-shot).
	// The request's deadline bounds the scan: a stream that stops short
	// ends it with an error, reported with every line seen.
	sc := bufio.NewScanner(resp.Body)
	var seen []string
	heartbeats := 0
	for heartbeats < 2 && sc.Scan() {
		line := sc.Text()
		seen = append(seen, line)
		if line == "" {
			continue
		}
		if line != ": keepalive" {
			t.Fatalf("idle stream delivered %q, want keepalive comments only", line)
		}
		heartbeats++
	}
	if heartbeats < 2 {
		t.Fatalf("stream ended after %d heartbeats (want 2), lines seen %q: %v", heartbeats, seen, sc.Err())
	}
}

// slowRun fires a long-running /run in the background and returns a channel
// carrying the decoded response (or the transport/status error).
func slowRun(t *testing.T, url, query string) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	var rr runResponse
	go func() {
		resp, err := http.Post(url+query, "", nil)
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			done <- fmt.Errorf("run status %d: %s", resp.StatusCode, body)
			return
		}
		done <- json.NewDecoder(resp.Body).Decode(&rr)
	}()
	return done
}

// awaitEvent collects the stream until an event of the wanted type arrives
// for the job (job 0: any job), returning that event.
func awaitEvent(t *testing.T, stream *eventStream, typ string, job uint64) trace.StreamEvent {
	t.Helper()
	events := stream.collect(func(evs []trace.StreamEvent) bool {
		for _, ev := range evs {
			if ev.Type == typ && (job == 0 || ev.Job == job) {
				return true
			}
		}
		return false
	})
	for _, ev := range events {
		if ev.Type == typ && (job == 0 || ev.Job == job) {
			return ev
		}
	}
	panic("unreachable")
}

// postJSON posts to a job-control endpoint and decodes the response,
// failing on any non-2xx status.
func postJSON(t *testing.T, url string) jobControlResponse {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
	}
	var jc jobControlResponse
	if err := json.NewDecoder(resp.Body).Decode(&jc); err != nil {
		t.Fatal(err)
	}
	return jc
}

// TestSuspendResumeOverHTTP is the serving half of the exactly-once
// acceptance bar: a running job is parked via POST /jobs/{id}/suspend,
// re-admitted via /resume, and the original /run response must carry the
// full (not partial, not doubled) reduction under the same job id.
func TestSuspendResumeOverHTTP(t *testing.T) {
	_, ts := newTracedServer(t, Config{Workers: 2})
	stream := openEvents(t, ts.URL, "")

	const n = 4000
	runDone := slowRun(t, ts.URL, fmt.Sprintf("/run?workload=spinsum&n=%d&iterns=100000&grain=8", n))

	id := awaitEvent(t, stream, "dispatched", 0).Job
	if id == 0 {
		t.Fatal("dispatched event carries job id 0")
	}

	// Park it. The POST returns as soon as the quiesce request is posted;
	// the park itself lands at the next chunk-wave boundary, visible as the
	// "suspended" lifecycle event.
	if jc := postJSON(t, fmt.Sprintf("%s/jobs/%d/suspend", ts.URL, id)); jc.Job != id {
		t.Fatalf("suspend answered for job %d, want %d", jc.Job, id)
	}
	ev := awaitEvent(t, stream, "suspended", id)
	if !strings.HasPrefix(ev.Detail, "cursor=") {
		t.Errorf("suspended event detail %q, want cursor watermark", ev.Detail)
	}

	// Suspend is idempotent on a parked job; resume re-admits it.
	if jc := postJSON(t, fmt.Sprintf("%s/jobs/%d/suspend", ts.URL, id)); jc.State != "suspended" {
		t.Errorf("re-suspend state %q, want suspended", jc.State)
	}
	postJSON(t, fmt.Sprintf("%s/jobs/%d/resume", ts.URL, id))
	awaitEvent(t, stream, "resumed", id)
	awaitEvent(t, stream, "joined", id)

	if err := awaitDone(t, runDone, "suspended and resumed /run"); err != nil {
		t.Fatal(err)
	}

	// One continuous trace under the original id, carrying the pause.
	resp, err := http.Get(fmt.Sprintf("%s/trace/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace/%d status %d: %s", id, resp.StatusCode, body)
	}
	// The pause renders as a "suspended" child span carrying the cursor
	// watermark the job parked at.
	for _, want := range []string{`"suspended"`, `"cursor"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("trace of job %d missing %s span data", id, want)
		}
	}
}

// TestJobAddressableOnDispatch: a job must be addressable as soon as its
// dispatched event is out, even while the /run that submitted it has not
// got its handle back. With one worker and a one-slot queue, a batch of
// three jobs keeps the handler inside SubmitBatch while the first job runs:
// the third job waits for a queue slot until the second is admitted, which
// needs the first to finish or park. A suspend sent on the first job's
// dispatched event must therefore find it, not answer 404.
func TestJobAddressableOnDispatch(t *testing.T) {
	_, ts := newTracedServer(t, Config{Workers: 1, Shards: 1, QueueDepth: 1})
	stream := openEvents(t, ts.URL, "")
	runDone := slowRun(t, ts.URL, "/run?workload=spinsum&n=3000&iterns=100000&grain=8&jobs=3&batch=1")

	id := awaitEvent(t, stream, "dispatched", 0).Job
	resp, err := http.Post(fmt.Sprintf("%s/jobs/%d/suspend", ts.URL, id), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suspend on job %d's dispatched event: status %d: %s", id, resp.StatusCode, body)
	}
	awaitEvent(t, stream, "suspended", id)
	postJSON(t, fmt.Sprintf("%s/jobs/%d/resume", ts.URL, id))
	if err := awaitDone(t, runDone, "batch /run with a suspended job"); err != nil {
		t.Fatal(err)
	}
}

// TestJobControlErrorPaths: malformed ids are 400, unknown jobs 404, and a
// resume of a job that is not suspended is 409 Conflict.
func TestJobControlErrorPaths(t *testing.T) {
	_, ts := newTracedServer(t, Config{Workers: 2})
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/jobs/not-a-number/suspend", http.StatusBadRequest},
		{"/jobs/99999/suspend", http.StatusNotFound},
		{"/jobs/99999/resume", http.StatusNotFound},
	} {
		resp, err := http.Post(ts.URL+tc.path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}

	// Without tracing, jobs are not addressable at all.
	plain, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsPlain := httptest.NewServer(plain)
	defer func() {
		plain.Close()
		tsPlain.Close()
	}()
	resp, err := http.Post(tsPlain.URL+"/jobs/1/suspend", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("untraced suspend: status %d, want 404", resp.StatusCode)
	}
}

// TestCheckpointRecoveryAcrossRestart is the crash-recovery acceptance
// shape, in-process: daemon one suspends a mid-flight job to a file-backed
// store and shuts down; daemon two on the same directory must re-admit it
// under its original job id, run it to completion, and leave the store
// empty (a third daemon recovers nothing).
func TestCheckpointRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Server, *httptest.Server) {
		// CheckpointDir force-enables tracing; no explicit Trace needed.
		srv, err := New(Config{Workers: 2, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv)
	}

	srv1, ts1 := boot()
	stream := openEvents(t, ts1.URL, "")
	runDone := slowRun(t, ts1.URL, "/run?workload=spinsum&n=3000&iterns=100000&tenant=ckpt")
	id := awaitEvent(t, stream, "dispatched", 0).Job
	postJSON(t, fmt.Sprintf("%s/jobs/%d/suspend", ts1.URL, id))
	awaitEvent(t, stream, "suspended", id)

	// "Crash": tear the daemon down with the job parked. Close cancels the
	// suspended job in-process but keeps its durable checkpoint, and the
	// in-flight /run answers (with the job marked canceled) rather than
	// hanging; the WAL on disk is the only survivor.
	// Close the runtime first: it cancels the parked job, which unblocks the
	// in-flight /run handler so the listener can drain its connection.
	stream.close()
	srv1.Close()
	awaitDone(t, runDone, "/run of the job torn down mid-flight") // outcome irrelevant
	ts1.Close()

	srv2, ts2 := boot()
	var st statsResponse
	resp, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.RecoveredJobs != 1 {
		t.Fatalf("recovered_jobs = %d, want 1", st.RecoveredJobs)
	}

	// The recovered job finishes in the background under its original id:
	// /trace/{id} serves its span tree once joined.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/trace/%d", ts2.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if !strings.Contains(string(body), "\"recovered\"") {
				t.Errorf("trace of recovered job %d does not mark recovery", id)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job %d never finished: /trace status %d", id, resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2.Close()
	ts2.Close()

	// Completion deleted the checkpoint: a third boot recovers nothing.
	srv3, ts3 := boot()
	defer func() {
		srv3.Close()
		ts3.Close()
	}()
	resp, err = http.Get(ts3.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.RecoveredJobs != 0 {
		t.Errorf("after completion, third boot recovered %d jobs, want 0", st.RecoveredJobs)
	}
}
