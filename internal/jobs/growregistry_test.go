package jobs

import (
	"testing"
	"time"
)

// TestGrowRegistryExactAfterWait pins the grow registry's exactness: a job
// whose Wait returned has left every scheduler's registry, so an idle pool
// reports no growable job. Empty N = P elastic jobs are small enough to
// drain, or even complete, before the release wave that admitted them has
// finished; a registration after that point used to leave a stale entry
// behind, which woke the dispatcher for nothing on every job and let a
// grower or cross-shard lender call tryGrow on a job its owner was already
// Releasing (a data race with freeJob's field reset, reported by -race).
// The loop runs Submit→Wait→Release back to back with the dispatchers live,
// on a standalone Scheduler and on a Sharded pool whose idle shard lends.
func TestGrowRegistryExactAfterWait(t *testing.T) {
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	check := func(t *testing.T, i int, j *Job, shards []*Scheduler) {
		t.Helper()
		for _, s := range shards {
			s.growMu.Lock()
			_, listed := s.growSet[j]
			n := len(s.growSet)
			s.growMu.Unlock()
			if listed || n != 0 || s.growables.Load() != 0 {
				t.Fatalf("job %d: after Wait, %s still lists it=%v, registry size %d, growables %d; want none",
					i, s.cfg.Name, listed, n, s.growables.Load())
			}
		}
	}
	run := func(t *testing.T, submit func(Request) (*Job, error), p int, shards []*Scheduler) {
		req := Request{N: p, Body: func(w, lo, hi int) {}}
		for i := 0; i < iters; i++ {
			j, err := submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			check(t, i, j, shards)
			j.Release()
		}
	}

	t.Run("Scheduler", func(t *testing.T) {
		s := New(Config{Workers: 2, Name: "standalone"})
		defer s.Close()
		run(t, s.Submit, s.P(), []*Scheduler{s})
	})
	t.Run("Sharded", func(t *testing.T) {
		p := testSharded(t, ShardedConfig{
			Config:        Config{Workers: 2},
			Shards:        2,
			StealInterval: 20 * time.Microsecond, // keep the idle shard lending
		})
		run(t, p.Submit, p.P(), p.shards)
	})
}
