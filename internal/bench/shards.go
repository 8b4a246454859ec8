package bench

import (
	"fmt"
	"strings"

	"pacon/internal/obs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// The shards experiment runs the commit, read and scale workloads
// against the subtree-partitioned metadata service (internal/dfs sharded
// mode) at each MDS shard count in Config.ShardSweep — the only place
// those sweeps run. The headline is commit-wave scaling: with
// the namespace spread by subtree, the per-shard service resource stops
// being the bottleneck, virtual throughput grows toward linear with the
// pool, and the commit pipeline's queue_wait share of the critical path
// falls. Every point that degrades more than 10% below the single-shard
// baseline carries an explicit note — the sweep reports regressions, it
// does not hide them.
func init() { register("shards", runShards) }

// sweepWorkloads are the workloads the shards experiment sweeps, in
// report order; each measures one point at cfg.MDSShards.
var sweepWorkloads = []struct {
	name string
	run  func(Config) (Point, error)
}{
	{"commit", func(cfg Config) (Point, error) { return runCommitVariant(cfg, shardSweepPhase) }},
	{"read", runReadVariant},
	// One scale point: the fan-in the hotspot experiment also runs at.
	{"scale", func(cfg Config) (Point, error) { return runScalePoint(cfg, cfg.fanInClients()) }},
}

// queueWaitShare estimates queue_wait's share of the traced critical
// path from the critpath_* histograms: Σ count×p50 per segment, then
// queue_wait over the total. An approximation (p50×count, not a true
// sum), but stable enough to show the trend across shard counts.
func queueWaitShare(q map[string]obs.Quantiles) float64 {
	var total, qw float64
	for name, h := range q {
		if !strings.HasPrefix(name, "critpath_") {
			continue
		}
		w := float64(h.Count) * float64(h.P50)
		total += w
		if name == "critpath_"+obs.SegQueueWait {
			qw = w
		}
	}
	if total <= 0 {
		return 0
	}
	return qw / total
}

// shardSweepPhase is the sweep's workload: a pure-metadata commit wave
// (create + every-4th remove, no data writes). The host commit report
// keeps its create+write+remove mix, but inline writes deliberately
// ride the singleton commit path — per-op round trips the shard router
// cannot parallelize — so they would measure the commit loop's RPC
// cadence, not the metadata service under test. Every op here is
// batchable: each wave ships as one apply_batch that the router splits
// into concurrent per-shard sub-batches.
func shardSweepPhase(idx int, fc workload.FileClient, now vclock.Time, items int) (vclock.Time, int64, error) {
	var ops int64
	var err error
	for j := 0; j < items; j++ {
		p := fmt.Sprintf("/w/c%d-f%d", idx, j)
		if now, err = fc.Create(now, p, 0o644); err != nil {
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

// runShards measures every (workload, shard count) point once. Each
// point carries speedup_vs_1shard against its workload's first (1-shard)
// point and queue_wait_critpath_share from its stages.
func runShards(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "shards", Title: "Throughput vs MDS shard count (subtree-partitioned MDS)",
		YLabel: "ops/s (virtual)",
		Series: []string{"virtual_ops_per_sec", "speedup_vs_1shard", "queue_wait_critpath_share", "mds_queue_wait_ns_per_op"},
	}
	for _, w := range sweepWorkloads {
		first := len(f.Points)
		for _, n := range cfg.ShardSweep {
			scfg := cfg
			scfg.MDSShards = n
			p, err := w.run(scfg)
			if err != nil {
				return nil, fmt.Errorf("shards %s at %d shards: %w", w.name, n, err)
			}
			p.Params = map[string]string{"workload": w.name, "mds_shards": fmt.Sprint(n)}
			p.Metrics["queue_wait_critpath_share"] = queueWaitShare(p.Stages)
			f.Points = append(f.Points, p)
		}
		finishSweep(f, w.name, f.Points[first:])
	}
	return []*Figure{f}, nil
}

// finishSweep derives one workload's speedups against its first point
// (the 1-shard baseline) and adds the sweep's headline notes. Every
// point that degrades more than 10% below the baseline gets its own
// note — the sweep reports regressions, it does not hide them.
func finishSweep(f *Figure, name string, pts []Point) {
	if len(pts) == 0 {
		return
	}
	base := pts[0].Metrics["virtual_ops_per_sec"]
	maxSpeedup := 0.0
	for _, p := range pts {
		ops := p.Metrics["virtual_ops_per_sec"]
		speedup := 0.0
		if base > 0 {
			speedup = ops / base
		}
		p.Metrics["speedup_vs_1shard"] = speedup
		if p.Params["mds_shards"] != "1" {
			maxSpeedup = max(maxSpeedup, speedup)
		}
		if base > 0 && ops < 0.9*base {
			f.Note("%s at %s shards: degrades %.0f%% vs single-shard", name, p.Params["mds_shards"], 100*(1-ops/base))
		}
	}
	if len(pts) < 2 {
		return
	}
	first, last := pts[0], pts[len(pts)-1]
	fm, lm := first.Metrics, last.Metrics
	from, to := first.Params["mds_shards"], last.Params["mds_shards"]
	f.Note("%s: %.0f -> %.0f ops/s from %s to %s shards (max speedup %.2fx)",
		name, fm["virtual_ops_per_sec"], lm["virtual_ops_per_sec"], from, to, maxSpeedup)
	if fm["mds_queue_wait_ns_per_op"] > 0 {
		f.Note("%s: MDS queue wait (virtual) %.1fus -> %.1fus per op from %s to %s shards",
			name, fm["mds_queue_wait_ns_per_op"]/1e3, lm["mds_queue_wait_ns_per_op"]/1e3, from, to)
	}
	if fm["queue_wait_critpath_share"] > 0 && lm["queue_wait_critpath_share"] > 0 {
		f.Note("%s: queue_wait critical-path share (wall) %.0f%% at %s shard(s) -> %.0f%% at %s",
			name, 100*fm["queue_wait_critpath_share"], from, 100*lm["queue_wait_critpath_share"], to)
	}
}
