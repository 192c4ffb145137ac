package jobs_test

// The deterministic invariant harness (internal/schedtest) drives every jobs
// runtime configuration with the same seeded op stream: default, capped,
// single-worker, and sharded with stealing on a hostile (tiny) steal
// interval. Run under -race; CI's nightly race-stress job repeats these with
// -count to shake out probabilistic interleavings.

import (
	"testing"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/schedtest"
)

// seed is fixed so failures reproduce; bump deliberately to explore a new
// stream, or override per-run with -invariant.seed if it ever becomes a
// flag. Logged by the harness on every run.
const seed = 0x5eed

func schedulerDrain(s *jobs.Scheduler) func() schedtest.DrainStats {
	return func() schedtest.DrainStats {
		st := s.Stats()
		return schedtest.DrainStats{
			BusyWorkers: st.BusyWorkers, QueueDepth: st.QueueDepth,
			Running: st.Running, Blocked: int(st.BlockedDepth),
		}
	}
}

func shardedDrain(p *jobs.Sharded) func() schedtest.DrainStats {
	return func() schedtest.DrainStats {
		st := p.Stats()
		return schedtest.DrainStats{
			BusyWorkers: st.Total.BusyWorkers, QueueDepth: st.Total.QueueDepth,
			Running: st.Total.Running, Blocked: int(st.Total.BlockedDepth),
		}
	}
}

func TestInvariantElasticScheduler(t *testing.T) {
	s := jobs.New(jobs.Config{Workers: 4})
	defer s.Close()
	schedtest.RunJobInvariants(t, s, schedtest.InvariantOptions{Seed: seed}, 4, schedulerDrain(s))
}

func TestInvariantSingleWorker(t *testing.T) {
	s := jobs.New(jobs.Config{Workers: 1, QueueDepth: 4}) // tiny queue: backpressure in the stream
	defer s.Close()
	schedtest.RunJobInvariants(t, s, schedtest.InvariantOptions{Seed: seed + 2, Tenants: 4, OpsPerTenant: 25}, 1, schedulerDrain(s))
}

func TestInvariantCappedScheduler(t *testing.T) {
	s := jobs.New(jobs.Config{Workers: 4, MaxWorkersPerJob: 2, DefaultGrain: 8})
	defer s.Close()
	schedtest.RunJobInvariants(t, s, schedtest.InvariantOptions{Seed: seed + 3}, 4, schedulerDrain(s))
}

func TestInvariantShardedWithStealing(t *testing.T) {
	// The hostile configuration: 1-worker shards and a near-zero steal
	// interval maximise migration and lending churn.
	p := jobs.NewSharded(jobs.ShardedConfig{
		Config:        jobs.Config{Workers: 4},
		Shards:        4,
		StealInterval: 20 * time.Microsecond,
	})
	defer p.Close()
	schedtest.RunJobInvariants(t, p, schedtest.InvariantOptions{Seed: seed + 4, Tenants: 8}, 4, shardedDrain(p))
}

func TestInvariantShardedNoStealing(t *testing.T) {
	p := jobs.NewSharded(jobs.ShardedConfig{
		Config:          jobs.Config{Workers: 4},
		Shards:          2,
		DisableStealing: true,
	})
	defer p.Close()
	schedtest.RunJobInvariants(t, p, schedtest.InvariantOptions{Seed: seed + 5}, 4, shardedDrain(p))
}

func TestInvariantTenantWeights(t *testing.T) {
	// The standard op stream (which tags jobs with tenants, priorities and
	// deadlines) against a scheduler with registered unequal weights: the
	// structural invariants must hold whatever the admission order.
	s := jobs.New(jobs.Config{Workers: 4, TenantWeights: map[string]int{
		"acct-a": 4, "acct-b": 2, "acct-c": 1,
	}})
	defer s.Close()
	schedtest.RunJobInvariants(t, s, schedtest.InvariantOptions{Seed: seed + 7}, 4, schedulerDrain(s))
}

func TestInvariantFIFOPolicy(t *testing.T) {
	// The same stream with the policy disabled: the FIFO path must satisfy
	// the same structural invariants (it shares all execution machinery).
	s := jobs.New(jobs.Config{Workers: 4, DisableFair: true})
	defer s.Close()
	schedtest.RunJobInvariants(t, s, schedtest.InvariantOptions{Seed: seed + 8}, 4, schedulerDrain(s))
}

func TestInvariantWeightedShare(t *testing.T) {
	// Policy invariant: two tenants at 3:1 weights under sustained
	// saturation are served within 15% of 3:1 over a long seeded window.
	s := jobs.New(jobs.Config{Workers: 4, TenantWeights: map[string]int{
		"share-a": 3, "share-b": 1,
	}})
	defer s.Close()
	schedtest.RunWeightedShareInvariant(t, s,
		func() map[string]jobs.TenantStats { return s.Stats().Tenants },
		schedtest.FairnessOptions{WeightA: 3, WeightB: 1})
}

func TestInvariantWeightedShareSharded(t *testing.T) {
	// The same share invariant across a sharded pool with stealing: steals
	// pop through each victim's weighted-fair queue, so the pool-wide
	// served ratio must still track the weights.
	p := jobs.NewSharded(jobs.ShardedConfig{
		Config: jobs.Config{Workers: 4, TenantWeights: map[string]int{
			"share-a": 3, "share-b": 1,
		}},
		Shards: 2,
	})
	defer p.Close()
	schedtest.RunWeightedShareInvariant(t, p,
		func() map[string]jobs.TenantStats { return p.Stats().Total.Tenants },
		schedtest.FairnessOptions{WeightA: 3, WeightB: 1})
}

func TestInvariantNoStarvation(t *testing.T) {
	// Policy invariant: a light tenant's jobs complete in bounded time
	// while a heavy tenant floods a sharded pool with stealing enabled.
	p := jobs.NewSharded(jobs.ShardedConfig{
		Config:        jobs.Config{Workers: 4},
		Shards:        2,
		StealInterval: 50 * time.Microsecond,
	})
	defer p.Close()
	schedtest.RunNoStarvationInvariant(t, p, schedtest.FairnessOptions{})
}

func TestInvariantOverloadScheduler(t *testing.T) {
	// The admission-control stream against a deliberately tiny queue with
	// bounded waits, feasibility shedding and breakers armed: shed jobs never
	// run, rejections are typed with retry hints, shed accounting balances,
	// no queue slot leaks, and the abuser's breaker re-closes after recovery.
	s := jobs.New(jobs.Config{
		Workers: 2, QueueDepth: 6, MaxWait: 2 * time.Millisecond,
		ShedInfeasible: true, SLOTarget: 0.5,
		BreakerBurnRate: 1, BreakerCooldown: 200 * time.Millisecond,
	})
	t.Cleanup(s.Close) // after parkWorkers' release cleanup, so a Fatal cannot deadlock Close
	schedtest.RunOverloadInvariants(t, s,
		schedtest.OverloadInvariantOptions{Seed: seed + 11, QueueDepth: 6, Workers: 2},
		schedulerDrain(s),
		func() schedtest.ShedTotals {
			st := s.Stats()
			return schedtest.ShedTotals{Shed: st.ShedTotal, Infeasible: st.InfeasibleTotal, Backlogged: st.BackloggedTotal}
		},
		func(tenant string) string { return s.Stats().Tenants[tenant].BreakerState })
}

func TestInvariantOverloadSharded(t *testing.T) {
	// The same admission-control stream across a sharded pool: the breaker
	// check runs before cross-shard routing and the shed/slot accounting
	// must balance on the merged totals. Stealing is disabled so the
	// slot-leak probe's exact queue-fill count is deterministic.
	p := jobs.NewSharded(jobs.ShardedConfig{
		Config: jobs.Config{
			Workers: 4, QueueDepth: 8, MaxWait: 2 * time.Millisecond,
			ShedInfeasible: true, SLOTarget: 0.5,
			BreakerBurnRate: 1, BreakerCooldown: 200 * time.Millisecond,
		},
		Shards:          2,
		DisableStealing: true,
	})
	t.Cleanup(p.Close) // after parkWorkers' release cleanup, so a Fatal cannot deadlock Close
	schedtest.RunOverloadInvariants(t, p,
		schedtest.OverloadInvariantOptions{Seed: seed + 12, QueueDepth: 8, Workers: 4},
		shardedDrain(p),
		func() schedtest.ShedTotals {
			st := p.Stats().Total
			return schedtest.ShedTotals{Shed: st.ShedTotal, Infeasible: st.InfeasibleTotal, Backlogged: st.BackloggedTotal}
		},
		func(tenant string) string { return p.Stats().Total.Tenants[tenant].BreakerState })
}
