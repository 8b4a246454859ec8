package bench

import (
	"fmt"
	"sync"
	"time"

	"pacon/internal/obs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// The commit experiment measures the commit path's round-trip economy:
// a create/write/remove workload runs against the shipped commit
// configuration (server-side conditional cache ops, dequeue batches,
// same-path coalescing, apply_batch), and the report records cache
// round trips per created file, backend round trips, and end-to-end
// virtual throughput including the drain. The comparison against the
// retired client-side Get+CAS commit path is frozen in EXPERIMENTS.md.
func init() { register("commit", runCommit) }

// commitPhase is one client's slice of the commit workload: it runs
// `items` iterations from `now` and returns the new time and op count.
type commitPhase func(idx int, fc workload.FileClient, now vclock.Time, items int) (vclock.Time, int64, error)

// defaultCommitPhase is the report's headline workload: create + inline
// write + every-4th remove. The inline writes ride the singleton commit
// path by design (data writes are not batchable), so the mix exercises
// both sides of applyWave.
func defaultCommitPhase(payload []byte) commitPhase {
	return func(idx int, fc workload.FileClient, now vclock.Time, items int) (vclock.Time, int64, error) {
		var ops int64
		var err error
		for j := 0; j < items; j++ {
			p := fmt.Sprintf("/w/c%d-f%d", idx, j)
			if now, err = fc.Create(now, p, 0o644); err != nil {
				return now, ops, err
			}
			ops++
			if now, err = fc.WriteAt(now, p, 0, payload); err != nil {
				return now, ops, err
			}
			ops++
			if j%4 == 0 {
				if now, err = fc.Remove(now, p); err != nil {
					return now, ops, err
				}
				ops++
			}
		}
		return now, ops, nil
	}
}

// runCommitVariant drives the workload with half the cluster's clients
// against the shipped region configuration and measures the commit
// path. Alongside the run's stage quantiles, the point carries the
// region's peak acknowledged commit lag; the stages include the
// commit_lag digest and max_staleness, the region-wide oldest-unacked
// watermark ticked by a wall-clock sampler while the workload and drain
// ran.
func runCommitVariant(cfg Config, phase commitPhase) (Point, error) {
	clients := cfg.halfCluster(2)
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	o := obs.New()
	e.instrument(o)
	if err := e.provision("/w"); err != nil {
		return Point{}, err
	}
	cls, err := e.paconVariantClients(clients, "/w", nil)
	if err != nil {
		return Point{}, err
	}
	region := e.regions[len(e.regions)-1]

	// Sample the region's staleness watermark on the wall clock for the
	// whole run (workload + drain). The sampler reads atomics/short locks
	// only and never touches virtual time, so virtual throughput is
	// unaffected.
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	stopSampler := sync.OnceFunc(func() {
		close(samplerStop)
		<-samplerDone
	})
	defer stopSampler()
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				o.Hist(obs.HistMaxStaleness).RecordN(region.MaxStaleness())
			}
		}
	}()

	runner := workload.NewRunner(cls)
	items := cfg.ItemsPerClient
	res, err := runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		return phase(idx, cl.(workload.FileClient), now, items)
	})
	if err != nil {
		return Point{}, err
	}
	done, err := region.Drain(res.End)
	if err != nil {
		return Point{}, err
	}
	stopSampler()

	st := region.Stats()
	creates := int64(clients * items)
	return measured(map[string]float64{
		"clients":          float64(clients),
		"items_per_client": float64(items),
		"ops_submitted":    float64(res.Ops),
		"creates":          float64(creates),
		"ops_committed":    float64(st.Committed),
		"coalesced":        float64(st.Coalesced),
		"cache_rpcs":       float64(st.CacheRPCs),
		"backend_rpcs":     float64(st.BackendRPCs),
		"batch_rpcs":       float64(st.BatchRPCs),
		"batched_ops":      float64(st.BatchedOps),
		// The headline: commit-path cache round trips per created file.
		"cache_rpcs_per_create": ratio(st.CacheRPCs, creates),
		// Measured to the end of the drain: the backup copies all landed.
		"virtual_ops_per_sec":      opsPerSec(res.Ops, vclock.Duration(done-res.Start)),
		"mds_queue_wait_ns_per_op": e.mdsQueueWaitPerOp(),
		"peak_commit_lag_ns":       float64(region.MaxCommitLag()),
	}, o), nil
}

func runCommit(cfg Config) ([]*Figure, error) {
	p, err := runCommitVariant(cfg, defaultCommitPhase(make([]byte, 256)))
	if err != nil {
		return nil, fmt.Errorf("commit: %w", err)
	}
	p.Params = map[string]string{"variant": "batched"}
	f := &Figure{
		ID: "commit", Title: "Commit path: conditional+coalesced+batched",
		YLabel: "see series",
		Series: []string{"cache_rpcs_per_create", "backend_rpcs", "ops_committed", "coalesced", "virtual_ops_per_sec"},
		Points: []Point{p},
	}
	m := p.Metrics
	f.Note("cache round trips per created file: %.2f", m["cache_rpcs_per_create"])
	f.Note("backend round trips: %.0f (%.0f ops rode %.0f apply_batch RPCs)",
		m["backend_rpcs"], m["batched_ops"], m["batch_rpcs"])
	f.Note("virtual throughput incl. drain: %.0f ops/s", m["virtual_ops_per_sec"])
	f.Note("peak commit lag (wall): %v", time.Duration(m["peak_commit_lag_ns"]))
	return []*Figure{f}, nil
}
