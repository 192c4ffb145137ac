// span.go is the lifecycle tracing layer on top of the counters in trace.go:
// per-job traces made of lifecycle events (submitted, admitted, dispatched,
// grown, peeled, preempted, stolen, joined, ...) and per-chunk-wave child
// spans (one per participant stint on the job), exported as OTLP-compatible
// JSON (see otlp.go) through a ring-buffered collector, plus a fan-out of the
// event stream to bounded subscribers that drop-and-count instead of ever
// blocking the scheduler.
//
// The layer is dependency-free and allocation-conscious: with no Tracer
// configured every hook in the jobs runtime is a single nil check, and with
// tracing on the cost per lifecycle transition is one mutex-guarded append on
// the job's own trace plus a non-blocking send per subscriber. Nothing here
// is ever on the per-chunk execution path — waves are recorded per
// participant stint, not per chunk claim.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventType enumerates the job lifecycle transitions carried by the stream.
type EventType uint8

// Lifecycle event types, in the order a job normally passes through them.
// submitted always comes first; admitted always precedes dispatched, which
// always precedes joined. blocked/released bracket dependency waits before
// admitted. grown/lent/preempted happen strictly between dispatched and
// joined; peeled may trail joined by a beat (the peeling participant has
// already left the sub-team when it records the event, so the join wave can
// complete concurrently).
const (
	EvSubmitted EventType = iota
	EvBlocked
	EvReleased
	EvAdmitted
	EvDispatched
	EvGrown
	EvLent
	EvPeeled
	EvPreempted
	EvStolen
	EvJoined
	EvCanceled
	// EvShed is terminal like joined/canceled: the submission was rejected
	// by admission control (deadline infeasible, queue backlogged past the
	// bounded wait, or the tenant's circuit breaker open — the Detail names
	// which) and the job never entered a queue.
	EvShed
	// EvSuspended/EvResumed bracket a checkpointed pause: the job left every
	// queue and sub-team with its cursor watermark captured (Detail carries
	// "cursor=<n>"), then re-entered admission from that watermark — possibly
	// in a different process, recovered from a checkpoint store under the
	// same job id.
	EvSuspended
	EvResumed

	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	EvSubmitted:  "submitted",
	EvBlocked:    "blocked",
	EvReleased:   "released",
	EvAdmitted:   "admitted",
	EvDispatched: "dispatched",
	EvGrown:      "grown",
	EvLent:       "lent",
	EvPeeled:     "peeled",
	EvPreempted:  "preempted",
	EvStolen:     "stolen",
	EvJoined:     "joined",
	EvCanceled:   "canceled",
	EvShed:       "shed",
	EvSuspended:  "suspended",
	EvResumed:    "resumed",
}

// String implements fmt.Stringer.
func (e EventType) String() string {
	if int(e) < len(eventTypeNames) {
		return eventTypeNames[e]
	}
	return "unknown"
}

// StreamEvent is one lifecycle transition of one job, as delivered to
// subscribers and serialized on the loopd /events feed. The JSON field names
// are stable.
type StreamEvent struct {
	// Seq is a tracer-wide monotonic sequence number. Causally ordered
	// transitions (submitted before admitted before dispatched before joined)
	// always carry increasing Seq; only genuinely concurrent events (two
	// workers growing at once) may be observed out of Seq order.
	Seq uint64 `json:"seq"`
	// TimeUnixNano is the wall-clock time of the transition.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Type is the EventType name ("submitted", "dispatched", ...).
	Type string `json:"type"`
	// Job is the tracer-assigned job id (also the id under GET /trace/{job}).
	Job uint64 `json:"job"`
	// Tenant and Label identify the job: the tenant account it is charged to
	// and the request's diagnostic label.
	Tenant string `json:"tenant"`
	Label  string `json:"label,omitempty"`
	// Shard is the shard the transition happened on (0 for standalone
	// schedulers). A stolen event carries the thief's shard; Detail names the
	// victim.
	Shard int `json:"shard"`
	// Priority is the job's admission priority class.
	Priority int `json:"priority"`
	// Workers is the transition's worker count: the initial sub-team size for
	// dispatched, the participant count after the change for grown/lent/
	// peeled, the posted shrink target for preempted, and the peak sub-team
	// size for joined. Zero when not meaningful.
	Workers int `json:"workers,omitempty"`
	// Detail carries transition-specific context: "deadline_missed" on a
	// joined event past its deadline, "from=<shard>" on stolen, "upstream" on
	// a cancellation propagated down the dependency graph.
	Detail string `json:"detail,omitempty"`
}

// Per-job caps keeping one pathological job (unbounded elastic churn) from
// growing its trace without limit; overflow is counted, not silently lost.
const (
	maxEventsPerJob = 512
	maxWavesPerJob  = 256
)

// Wave is one participant's chunk-wave on an elastic job — the stint from
// joining the sub-team (release wave, growth, or a cross-shard loan) to
// leaving it (peel or join wave). Rigid jobs record one wave per sub-worker.
type Wave struct {
	// Shard is the shard owning the participating worker — for a lent worker,
	// the lender's shard, not the job's.
	Shard int `json:"shard"`
	// Lent marks a cross-shard loan: the worker belonged to a sibling shard.
	Lent          bool  `json:"lent,omitempty"`
	StartUnixNano int64 `json:"start_unix_nano"`
	// EndUnixNano is zero while the stint is still running (the completing
	// participant records its end just after the join wave publishes the
	// result; exporters fall back to the trace end time).
	EndUnixNano int64 `json:"end_unix_nano"`
}

// JobTrace is one job's trace: identity, the ordered lifecycle events, and
// the per-chunk-wave participant stints. A nil *JobTrace is valid and records
// nothing, so an untraced scheduler pays one nil check per hook.
type JobTrace struct {
	// ID is the tracer-assigned job id; Tenant, Label and Priority are copied
	// from the request. All are immutable after Begin.
	ID       uint64
	Tenant   string
	Label    string
	Priority int

	t *Tracer

	mu        sync.Mutex
	events    []StreamEvent
	waves     []Wave
	truncated int // events and waves dropped past the per-job caps
	finished  bool
}

// Event records one lifecycle transition and publishes it to the tracer's
// subscribers. A joined or canceled event finishes the trace and files it in
// the tracer's collector ring (first terminal event wins). Safe on a nil
// receiver.
func (jt *JobTrace) Event(typ EventType, shard, workers int, detail string) {
	if jt == nil {
		return
	}
	t := jt.t
	ev := StreamEvent{
		Seq:          t.seq.Add(1),
		TimeUnixNano: time.Now().UnixNano(),
		Type:         typ.String(),
		Job:          jt.ID,
		Tenant:       jt.Tenant,
		Label:        jt.Label,
		Shard:        shard,
		Priority:     jt.Priority,
		Workers:      workers,
		Detail:       detail,
	}
	jt.mu.Lock()
	if len(jt.events) < maxEventsPerJob {
		jt.events = append(jt.events, ev)
	} else {
		jt.truncated++
	}
	finish := (typ == EvJoined || typ == EvCanceled || typ == EvShed) && !jt.finished
	if finish {
		jt.finished = true
	}
	jt.mu.Unlock()
	if finish {
		t.col.add(jt)
	}
	t.publish(ev)
}

// WaveStart records the beginning of one participant stint and returns its
// index for WaveEnd. Safe on a nil receiver (returns -1).
func (jt *JobTrace) WaveStart(shard int, lent bool) int {
	if jt == nil {
		return -1
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if len(jt.waves) >= maxWavesPerJob {
		jt.truncated++
		return -1
	}
	jt.waves = append(jt.waves, Wave{Shard: shard, Lent: lent, StartUnixNano: time.Now().UnixNano()})
	return len(jt.waves) - 1
}

// WaveEnd records the end of the stint started as wave i. Safe on a nil
// receiver and on i == -1 (an overflowed WaveStart).
func (jt *JobTrace) WaveEnd(i int) {
	if jt == nil || i < 0 {
		return
	}
	now := time.Now().UnixNano()
	jt.mu.Lock()
	jt.waves[i].EndUnixNano = now
	jt.mu.Unlock()
}

// Events returns a copy of the lifecycle events recorded so far, in record
// order. Safe on a nil receiver (returns nil).
func (jt *JobTrace) Events() []StreamEvent {
	if jt == nil {
		return nil
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return append([]StreamEvent(nil), jt.events...)
}

// Waves returns a copy of the participant stints recorded so far.
func (jt *JobTrace) Waves() []Wave {
	if jt == nil {
		return nil
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return append([]Wave(nil), jt.waves...)
}

// Finished reports whether a terminal event (joined or canceled) has been
// recorded. Safe on a nil receiver.
func (jt *JobTrace) Finished() bool {
	if jt == nil {
		return false
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.finished
}

// Truncated returns the number of events and waves dropped past the per-job
// caps (0 for well-behaved jobs).
func (jt *JobTrace) Truncated() int {
	if jt == nil {
		return 0
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.truncated
}

// Tracer is the lifecycle tracing hub: it assigns job ids, fans the event
// stream out to subscribers, and keeps the most recent finished job traces in
// a ring for span export. All methods are safe for concurrent use; a nil
// *Tracer is valid and does nothing, so schedulers run untraced at the cost
// of a nil check per hook.
type Tracer struct {
	ids     atomic.Uint64
	seq     atomic.Uint64
	dropped atomic.Int64

	subMu sync.RWMutex
	subs  map[*Subscription]struct{}

	col collector
}

// NewTracer creates a tracer whose collector keeps the most recent capacity
// finished job traces (<= 0 selects 1024).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	t := &Tracer{subs: make(map[*Subscription]struct{})}
	t.col.init(capacity)
	return t
}

// Begin starts a job trace: assigns the job id and fixes its identity.
// Safe on a nil receiver (returns nil, and every JobTrace method is nil-safe,
// so hooks need no further guard).
func (t *Tracer) Begin(tenant, label string, priority int) *JobTrace {
	if t == nil {
		return nil
	}
	return &JobTrace{
		ID:       t.ids.Add(1),
		Tenant:   tenant,
		Label:    label,
		Priority: priority,
		t:        t,
		events:   make([]StreamEvent, 0, 8),
	}
}

// BeginAt starts a job trace under a caller-chosen id — the crash-recovery
// path, which re-admits unfinished jobs from a checkpoint store under their
// original ids so /trace/{job} and /events subscribers observe one
// continuous lifecycle across restarts. The internal id counter is advanced
// to at least id, so later Begin calls never collide with a recovered id.
// Safe on a nil receiver.
func (t *Tracer) BeginAt(id uint64, tenant, label string, priority int) *JobTrace {
	if t == nil {
		return nil
	}
	for {
		cur := t.ids.Load()
		if cur >= id || t.ids.CompareAndSwap(cur, id) {
			break
		}
	}
	return &JobTrace{
		ID:       id,
		Tenant:   tenant,
		Label:    label,
		Priority: priority,
		t:        t,
		events:   make([]StreamEvent, 0, 8),
	}
}

// SetOwner makes the trace's owner — the job handle it describes — findable
// through Tracer.Owner by the trace's id until the trace finishes. A
// scheduler calls it before the job can be dispatched, so a client acting on
// any later event of the job finds it. Safe on a nil receiver.
func (jt *JobTrace) SetOwner(owner any) {
	if jt == nil {
		return
	}
	c := &jt.t.col
	c.mu.Lock()
	c.owners[jt.ID] = owner
	c.mu.Unlock()
}

// Owner returns the owner set on the unfinished trace of the given job id,
// or nil when there is none: the id is unknown, its trace has finished, or
// no owner was set. Safe on a nil receiver.
func (t *Tracer) Owner(id uint64) any {
	if t == nil {
		return nil
	}
	t.col.mu.Lock()
	defer t.col.mu.Unlock()
	return t.col.owners[id]
}

// Trace returns the finished trace of the given job id, or nil when the job
// has not finished or its trace was evicted from the ring. Safe on a nil
// receiver.
func (t *Tracer) Trace(id uint64) *JobTrace {
	if t == nil {
		return nil
	}
	return t.col.get(id)
}

// publish fans one event out to every matching subscriber with a non-blocking
// send: a subscriber whose buffer is full loses the event and has its drop
// counter incremented — the scheduler never blocks on a slow consumer.
func (t *Tracer) publish(ev StreamEvent) {
	t.subMu.RLock()
	for s := range t.subs {
		if s.tenant != "" && s.tenant != ev.Tenant {
			continue
		}
		if s.job != 0 && s.job != ev.Job {
			continue
		}
		select {
		case s.c <- ev:
		default:
			s.dropped.Add(1)
			t.dropped.Add(1)
		}
	}
	t.subMu.RUnlock()
}

// TracerStats is a snapshot of the tracer's own accounting.
type TracerStats struct {
	// EventsTotal counts lifecycle events ever emitted; DroppedTotal counts
	// subscriber deliveries lost to full buffers (one event sent to three
	// full subscribers counts three drops).
	EventsTotal  int64 `json:"events_total"`
	DroppedTotal int64 `json:"dropped_total"`
	// Subscribers is the number of live subscriptions; FinishedTraces the
	// number of finished job traces currently held in the collector ring.
	Subscribers    int `json:"subscribers"`
	FinishedTraces int `json:"finished_traces"`
}

// Stats returns the tracer's accounting snapshot. Safe on a nil receiver.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.subMu.RLock()
	subs := len(t.subs)
	t.subMu.RUnlock()
	return TracerStats{
		EventsTotal:    int64(t.seq.Load()),
		DroppedTotal:   t.dropped.Load(),
		Subscribers:    subs,
		FinishedTraces: t.col.len(),
	}
}

// Subscription is one bounded subscriber of the lifecycle event stream,
// optionally filtered by tenant and/or job id.
type Subscription struct {
	c       chan StreamEvent
	t       *Tracer
	tenant  string
	job     uint64
	dropped atomic.Int64
}

// Subscribe registers a subscriber with the given buffer capacity (<= 0
// selects 256). tenant filters to one tenant account ("" passes all); job
// filters to one job id (0 passes all). Safe on a nil receiver (returns nil).
func (t *Tracer) Subscribe(buffer int, tenant string, job uint64) *Subscription {
	if t == nil {
		return nil
	}
	if buffer <= 0 {
		buffer = 256
	}
	s := &Subscription{c: make(chan StreamEvent, buffer), t: t, tenant: tenant, job: job}
	t.subMu.Lock()
	t.subs[s] = struct{}{}
	t.subMu.Unlock()
	return s
}

// Events returns the subscriber's channel. The channel is never closed; pair
// the receive with a context or done channel and call Close when finished.
func (s *Subscription) Events() <-chan StreamEvent { return s.c }

// Dropped returns the number of events this subscriber lost to a full buffer.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Close unregisters the subscriber; no further events are delivered after it
// returns (events already buffered remain readable). Safe to call once.
func (s *Subscription) Close() {
	s.t.subMu.Lock()
	delete(s.t.subs, s)
	s.t.subMu.Unlock()
}

// collector is the ring buffer of finished job traces, indexed by job id,
// and the owners of unfinished ones: a trace leaves owners in the same
// critical section that files it in the ring.
type collector struct {
	mu     sync.Mutex
	ring   []*JobTrace
	byID   map[uint64]int
	owners map[uint64]any
	next   int
	n      int
}

func (c *collector) init(capacity int) {
	c.ring = make([]*JobTrace, capacity)
	c.byID = make(map[uint64]int, capacity)
	c.owners = make(map[uint64]any)
}

func (c *collector) add(jt *JobTrace) {
	c.mu.Lock()
	delete(c.owners, jt.ID)
	if old := c.ring[c.next]; old != nil {
		delete(c.byID, old.ID)
	}
	c.ring[c.next] = jt
	c.byID[jt.ID] = c.next
	c.next = (c.next + 1) % len(c.ring)
	if c.n < len(c.ring) {
		c.n++
	}
	c.mu.Unlock()
}

func (c *collector) get(id uint64) *JobTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.byID[id]
	if !ok {
		return nil
	}
	return c.ring[i]
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
