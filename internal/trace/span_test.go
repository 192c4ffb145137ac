package trace

import (
	"encoding/json"
	"strconv"
	"sync"
	"testing"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	jt := tr.Begin("tenant", "label", 0)
	if jt != nil {
		t.Fatalf("nil tracer Begin = %v, want nil", jt)
	}
	// All hooks must be no-ops on the nil handle.
	jt.Event(EvSubmitted, 0, 0, "")
	w := jt.WaveStart(0, false)
	if w != -1 {
		t.Fatalf("nil WaveStart = %d, want -1", w)
	}
	jt.WaveEnd(w)
	if jt.Finished() || jt.Events() != nil || jt.Waves() != nil || jt.Truncated() != 0 {
		t.Fatalf("nil JobTrace accessors not inert")
	}
	if got := tr.Stats(); got != (TracerStats{}) {
		t.Fatalf("nil tracer Stats = %+v, want zero", got)
	}
	if tr.Trace(1) != nil {
		t.Fatalf("nil tracer Trace != nil")
	}
	if tr.Subscribe(1, "", 0) != nil {
		t.Fatalf("nil tracer Subscribe != nil")
	}
	jt.SetOwner(1)
	if tr.Owner(1) != nil {
		t.Fatalf("nil tracer Owner != nil")
	}
}

// TestOwnerUntilTerminalEvent: an owned trace's owner is found by id from
// SetOwner until the trace's terminal event, and never for an unowned one.
func TestOwnerUntilTerminalEvent(t *testing.T) {
	tr := NewTracer(4)
	owned, unowned := tr.Begin("t", "", 0), tr.Begin("t", "", 0)
	owner := new(int)
	owned.SetOwner(owner)
	owned.Event(EvDispatched, 0, 1, "")
	if got := tr.Owner(owned.ID); got != owner {
		t.Fatalf("Owner(%d) = %v after dispatch, want the owner", owned.ID, got)
	}
	if got := tr.Owner(unowned.ID); got != nil {
		t.Fatalf("Owner of an unowned trace = %v, want nil", got)
	}
	owned.Event(EvJoined, 0, 1, "")
	if got := tr.Owner(owned.ID); got != nil {
		t.Fatalf("Owner(%d) = %v after the terminal event, want nil", owned.ID, got)
	}
}

func TestEventOrderAndTerminalFiling(t *testing.T) {
	tr := NewTracer(8)
	jt := tr.Begin("acme", "stage0", 3)
	if jt.ID == 0 {
		t.Fatalf("job id not assigned")
	}
	jt.Event(EvSubmitted, 1, 0, "")
	jt.Event(EvAdmitted, 1, 0, "")
	jt.Event(EvDispatched, 1, 2, "")
	if tr.Trace(jt.ID) != nil {
		t.Fatalf("trace filed before terminal event")
	}
	jt.Event(EvJoined, 1, 4, "")
	got := tr.Trace(jt.ID)
	if got != jt {
		t.Fatalf("Trace(%d) = %v, want the finished trace", jt.ID, got)
	}
	evs := got.Events()
	wantTypes := []string{"submitted", "admitted", "dispatched", "joined"}
	if len(evs) != len(wantTypes) {
		t.Fatalf("got %d events, want %d", len(evs), len(wantTypes))
	}
	var lastSeq uint64
	for i, ev := range evs {
		if ev.Type != wantTypes[i] {
			t.Errorf("event %d type = %q, want %q", i, ev.Type, wantTypes[i])
		}
		if ev.Seq <= lastSeq {
			t.Errorf("event %d seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Job != jt.ID || ev.Tenant != "acme" || ev.Label != "stage0" || ev.Priority != 3 {
			t.Errorf("event %d identity fields wrong: %+v", i, ev)
		}
	}
	if !got.Finished() {
		t.Fatalf("trace not marked finished")
	}
	if st := tr.Stats(); st.EventsTotal != 4 || st.FinishedTraces != 1 {
		t.Fatalf("tracer stats = %+v, want 4 events / 1 trace", st)
	}
}

func TestSubscribeFilters(t *testing.T) {
	tr := NewTracer(8)
	all := tr.Subscribe(16, "", 0)
	defer all.Close()
	byTenant := tr.Subscribe(16, "beta", 0)
	defer byTenant.Close()

	a := tr.Begin("alpha", "", 0)
	b := tr.Begin("beta", "", 0)
	byJob := tr.Subscribe(16, "", b.ID)
	defer byJob.Close()

	a.Event(EvSubmitted, 0, 0, "")
	b.Event(EvSubmitted, 0, 0, "")
	a.Event(EvJoined, 0, 1, "")
	b.Event(EvJoined, 0, 1, "")

	drain := func(s *Subscription) []StreamEvent {
		var out []StreamEvent
		for {
			select {
			case ev := <-s.Events():
				out = append(out, ev)
			default:
				return out
			}
		}
	}
	if got := drain(all); len(got) != 4 {
		t.Errorf("unfiltered subscriber got %d events, want 4", len(got))
	}
	for _, ev := range drain(byTenant) {
		if ev.Tenant != "beta" {
			t.Errorf("tenant filter leaked event %+v", ev)
		}
	}
	jobEvents := drain(byJob)
	if len(jobEvents) != 2 {
		t.Errorf("job filter got %d events, want 2", len(jobEvents))
	}
	for _, ev := range jobEvents {
		if ev.Job != b.ID {
			t.Errorf("job filter leaked event %+v", ev)
		}
	}
}

func TestSlowSubscriberDropsAndCounts(t *testing.T) {
	tr := NewTracer(8)
	slow := tr.Subscribe(2, "", 0)
	defer slow.Close()
	jt := tr.Begin("t", "", 0)
	for i := 0; i < 10; i++ {
		jt.Event(EvGrown, 0, i, "")
	}
	if got := slow.Dropped(); got != 8 {
		t.Fatalf("Dropped = %d, want 8", got)
	}
	if st := tr.Stats(); st.DroppedTotal != 8 {
		t.Fatalf("tracer DroppedTotal = %d, want 8", st.DroppedTotal)
	}
	// The two buffered events are still readable after Close.
	slow.Close()
	if len(slow.Events()) != 2 {
		t.Fatalf("buffered events lost on close")
	}
}

func TestSubscribeUnsubscribeRace(t *testing.T) {
	tr := NewTracer(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jt := tr.Begin("t", "", 0)
			for {
				select {
				case <-stop:
					return
				default:
					jt.Event(EvGrown, 0, 0, "")
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := tr.Subscribe(4, "", 0)
		select {
		case <-s.Events():
		default:
		}
		s.Close()
	}
	close(stop)
	wg.Wait()
	if st := tr.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscribers leaked: %+v", st)
	}
}

func TestCollectorRingEvicts(t *testing.T) {
	tr := NewTracer(2)
	var ids []uint64
	for i := 0; i < 3; i++ {
		jt := tr.Begin("t", "", 0)
		jt.Event(EvJoined, 0, 1, "")
		ids = append(ids, jt.ID)
	}
	if tr.Trace(ids[0]) != nil {
		t.Fatalf("oldest trace not evicted from ring")
	}
	if tr.Trace(ids[1]) == nil || tr.Trace(ids[2]) == nil {
		t.Fatalf("recent traces evicted")
	}
	if st := tr.Stats(); st.FinishedTraces != 2 {
		t.Fatalf("FinishedTraces = %d, want 2", st.FinishedTraces)
	}
}

func TestPerJobCapsCount(t *testing.T) {
	tr := NewTracer(2)
	jt := tr.Begin("t", "", 0)
	for i := 0; i < maxEventsPerJob+5; i++ {
		jt.Event(EvGrown, 0, 0, "")
	}
	if got := len(jt.Events()); got != maxEventsPerJob {
		t.Fatalf("events len = %d, want cap %d", got, maxEventsPerJob)
	}
	for i := 0; i < maxWavesPerJob+3; i++ {
		w := jt.WaveStart(0, false)
		jt.WaveEnd(w)
	}
	if got := len(jt.Waves()); got != maxWavesPerJob {
		t.Fatalf("waves len = %d, want cap %d", got, maxWavesPerJob)
	}
	if got := jt.Truncated(); got != 8 {
		t.Fatalf("Truncated = %d, want 8", got)
	}
}

func TestOTLPSpanTree(t *testing.T) {
	tr := NewTracer(8)
	jt := tr.Begin("acme", "pipeline", 2)
	jt.Event(EvSubmitted, 1, 0, "")
	jt.Event(EvBlocked, 1, 0, "")
	jt.Event(EvReleased, 1, 0, "")
	jt.Event(EvAdmitted, 1, 0, "")
	jt.Event(EvDispatched, 1, 2, "")
	w0 := jt.WaveStart(1, false)
	w1 := jt.WaveStart(2, true)
	jt.WaveEnd(w1)
	jt.Event(EvJoined, 1, 3, "")
	jt.WaveEnd(w0) // completing participant ends its wave after the join

	doc := jt.OTLP("loopd-test")
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected document shape: %+v", doc)
	}
	res := doc.ResourceSpans[0].Resource.Attributes
	if len(res) != 1 || res[0].Key != "service.name" || res[0].Value.StringValue != "loopd-test" {
		t.Fatalf("resource attributes = %+v", res)
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	byName := map[string][]OTLPSpan{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		if len(sp.TraceID) != 32 || len(sp.SpanID) != 16 {
			t.Errorf("span %q id lengths: trace %d span %d", sp.Name, len(sp.TraceID), len(sp.SpanID))
		}
		if _, err := strconv.ParseInt(sp.StartTimeUnixNano, 10, 64); err != nil {
			t.Errorf("span %q start not a decimal string: %q", sp.Name, sp.StartTimeUnixNano)
		}
	}
	for _, name := range []string{"job", "blocked", "queued", "run"} {
		if len(byName[name]) != 1 {
			t.Fatalf("want exactly one %q span, got %d (spans: %+v)", name, len(byName[name]), spans)
		}
	}
	if len(byName["wave"]) != 2 {
		t.Fatalf("want 2 wave spans, got %d", len(byName["wave"]))
	}
	root := byName["job"][0]
	if root.ParentSpanID != "" {
		t.Errorf("root span has a parent: %q", root.ParentSpanID)
	}
	run := byName["run"][0]
	for _, name := range []string{"blocked", "queued", "run"} {
		if byName[name][0].ParentSpanID != root.SpanID {
			t.Errorf("%q span parent = %q, want root %q", name, byName[name][0].ParentSpanID, root.SpanID)
		}
	}
	for _, w := range byName["wave"] {
		if w.ParentSpanID != run.SpanID {
			t.Errorf("wave span parent = %q, want run %q", w.ParentSpanID, run.SpanID)
		}
		if w.EndTimeUnixNano == "0" {
			t.Errorf("open wave did not fall back to trace end time")
		}
	}

	// The document must round-trip through encoding/json (the /trace handler
	// serves it verbatim).
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("marshal OTLP document: %v", err)
	}

	attrs := map[string]OTLPAnyValue{}
	for _, a := range root.Attributes {
		attrs[a.Key] = a.Value
	}
	if attrs["tenant"].StringValue != "acme" || attrs["label"].StringValue != "pipeline" {
		t.Errorf("root identity attributes wrong: %+v", attrs)
	}
	if attrs["workers.peak"].IntValue != "3" {
		t.Errorf("workers.peak = %q, want \"3\"", attrs["workers.peak"].IntValue)
	}
	if attrs["outcome"].StringValue != "completed" {
		t.Errorf("outcome = %q", attrs["outcome"].StringValue)
	}
}

func TestOTLPCanceledOutcome(t *testing.T) {
	tr := NewTracer(2)
	jt := tr.Begin("t", "", 0)
	jt.Event(EvSubmitted, 0, 0, "")
	jt.Event(EvBlocked, 0, 0, "")
	jt.Event(EvCanceled, 0, 0, "upstream")
	doc := jt.OTLP("x")
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	var root *OTLPSpan
	for i := range spans {
		if spans[i].Name == "job" {
			root = &spans[i]
		}
		if spans[i].Name == "run" || spans[i].Name == "queued" {
			t.Errorf("canceled-while-blocked trace grew a %q span", spans[i].Name)
		}
	}
	if root == nil {
		t.Fatal("no root span")
	}
	for _, a := range root.Attributes {
		if a.Key == "outcome" && a.Value.StringValue != "canceled" {
			t.Errorf("outcome = %q, want canceled", a.Value.StringValue)
		}
	}
}
