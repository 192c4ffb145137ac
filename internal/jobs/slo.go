package jobs

// slo.go is the completion accounting of a scheduler and of each tenant:
// every job completion records its latency and run time into lock-free
// histograms and its deadline outcome into counters. All of them only ever
// grow, so the accounting over a stretch of completions is the difference
// of two loads, and the accounting of several shards is their sum.
//
// Snapshots report quantiles over a recent window sized in jobs, not time:
// under a steady load it is a recent-past view, and under a trickle it still
// answers "how did the last N jobs do" instead of decaying to nothing. A
// window (stats.Window) spans the last N to 2N-1 completions, and its
// quantiles are within stats.RelErr (6.25%) of their exact values.
//
// Burn rate follows the usual SLO convention: the windowed miss fraction
// divided by the error budget (1 - target). A tenant burning at 1.0 consumes
// its budget exactly as fast as the objective allows; above 1.0 it is on
// track to violate the SLO, and a burn of N means the budget disappears N
// times faster than sustainable.

import (
	"sync/atomic"
	"time"

	"loopsched/internal/stats"
)

// Window sizes N: a scheduler's latency quantiles (Stats) and a tenant's
// SLO window (TenantSLO).
const (
	latencyWindow = 1024
	sloWindow     = 256
)

// ledger is the completion accounting of a scheduler or a tenant. lat is
// submission to completion for a scheduler and submission to admission (the
// wait) for a tenant; run is admission to completion for both. Every
// completion with a deadline counts in exactly one of deadlineHit and
// deadlineMissed.
type ledger struct {
	lat, run                    stats.Histogram
	deadlineHit, deadlineMissed atomic.Int64
}

// ledgerSnap is a loaded ledger, or a sum or difference of loaded ones.
type ledgerSnap struct {
	lat, run                    stats.Snapshot
	deadlineHit, deadlineMissed int64
}

// window is a ledger plus the marks its recent window is measured from.
type window = stats.Window[ledger, ledgerSnap, *ledger]

// Load, CopyFrom and Sub make ledger a group a stats.Window can mark.
func (l *ledger) Load() ledgerSnap {
	return ledgerSnap{l.lat.Load(), l.run.Load(), l.deadlineHit.Load(), l.deadlineMissed.Load()}
}

func (l *ledger) CopyFrom(o *ledger) {
	l.lat.CopyFrom(&o.lat)
	l.run.CopyFrom(&o.run)
	l.deadlineHit.Store(o.deadlineHit.Load())
	l.deadlineMissed.Store(o.deadlineMissed.Load())
}

func (a ledgerSnap) add(b ledgerSnap) ledgerSnap {
	return ledgerSnap{a.lat.Add(b.lat), a.run.Add(b.run), a.deadlineHit + b.deadlineHit, a.deadlineMissed + b.deadlineMissed}
}

func (a ledgerSnap) Sub(b ledgerSnap) ledgerSnap {
	return ledgerSnap{a.lat.Sub(b.lat), a.run.Sub(b.run), a.deadlineHit - b.deadlineHit, a.deadlineMissed - b.deadlineMissed}
}

// recordLedger accounts one completion (lat and run as documented on
// ledger).
func recordLedger(w *window, lat, run time.Duration, hadDeadline, missed bool) {
	l := &w.Live
	l.lat.Record(lat)
	l.run.Record(run)
	if missed {
		l.deadlineMissed.Add(1)
	} else if hadDeadline {
		l.deadlineHit.Add(1)
	}
	w.Tick()
}

// TenantSLO is one tenant's rolling-window SLO snapshot. The JSON field names
// are stable (cmd/loopd serves this struct on /stats and derives the
// loopd_slo_* metrics from it).
type TenantSLO struct {
	// Target is the deadline-hit objective the burn rate is measured against
	// (Config.SLOTarget).
	Target float64 `json:"target"`
	// WindowJobs is the number of completions in the rolling window: the
	// tenant's last 256 to 511 (all of them before the 256th);
	// DeadlineJobs of them carried a deadline and DeadlineHits of those met
	// it.
	WindowJobs   int `json:"window_jobs"`
	DeadlineJobs int `json:"deadline_jobs"`
	DeadlineHits int `json:"deadline_hits"`
	// HitRatio is DeadlineHits / DeadlineJobs over the window (1 when the
	// window has no deadline jobs: an unexercised SLO is not a violated one).
	HitRatio float64 `json:"hit_ratio"`
	// BurnRate is the windowed miss fraction divided by the error budget
	// (1 - Target): 0 when nothing missed, 1.0 when the tenant burns budget
	// exactly at the sustainable rate, above 1 when on track to violate.
	BurnRate float64 `json:"burn_rate"`
	// Wait (submission to admission) and run (admission to completion)
	// quantiles over the window, in seconds, each within stats.RelErr
	// (6.25%) of the exact quantile of the window's completions.
	WaitP50 float64 `json:"wait_p50_seconds"`
	WaitP95 float64 `json:"wait_p95_seconds"`
	WaitP99 float64 `json:"wait_p99_seconds"`
	RunP50  float64 `json:"run_p50_seconds"`
	RunP95  float64 `json:"run_p95_seconds"`
	RunP99  float64 `json:"run_p99_seconds"`
}

// buildTenantSLO derives the SLO snapshot from a window (nil when the
// window is empty).
func buildTenantSLO(target float64, win ledgerSnap) *TenantSLO {
	if win.run.Count() == 0 {
		return nil
	}
	slo := &TenantSLO{
		Target:       target,
		WindowJobs:   int(win.run.Count()),
		DeadlineJobs: int(win.deadlineHit + win.deadlineMissed),
		DeadlineHits: int(win.deadlineHit),
		HitRatio:     1,
	}
	if slo.DeadlineJobs > 0 {
		slo.HitRatio = float64(slo.DeadlineHits) / float64(slo.DeadlineJobs)
		if budget := 1 - target; budget > 0 {
			slo.BurnRate = (1 - slo.HitRatio) / budget
		}
	}
	slo.WaitP50, slo.WaitP95, slo.WaitP99 = win.lat.Quantile(0.5).Seconds(), win.lat.Quantile(0.95).Seconds(), win.lat.Quantile(0.99).Seconds()
	slo.RunP50, slo.RunP95, slo.RunP99 = win.run.Quantile(0.5).Seconds(), win.run.Quantile(0.95).Seconds(), win.run.Quantile(0.99).Seconds()
	return slo
}
