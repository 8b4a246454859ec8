package bench

import (
	"fmt"

	"pacon/internal/obs"
	"pacon/internal/workload"
)

// The hotspot experiment closes the loop on the hotspot-telemetry
// subsystem: a zipf-skewed stat/create mix (the skew regime metadata
// traces actually show) runs at scale-bench fan-in — thousands of
// multiplexed simulated clients, not 160 — while the sketches watch,
// and the report grades them. Three verdicts per point: client p50/p99
// under skew, the per-shard load spread a hot subtree induces on the
// partitioned MDS pool (ranks are laid out so the hottest ranks share
// one directory, hence one shard), and the top-K sketch's recall of the
// true hot set the generator planted. The sweep crosses zipf s ∈ {1.0,
// 1.2, 1.4} with MDS shards ∈ {1, 4}.
func init() { register("hotspot", runHotspot) }

const (
	// hotspotWarmPaths is the zipf key space: pre-created files split
	// across hotspotDirs directories in rank order, so ranks 0..63 (the
	// entire hot head) live in the first directory and the load they
	// attract concentrates on the shard that owns it.
	hotspotWarmPaths = 1024
	hotspotDirs      = 16
	// hotspotTopK is the hot-set size recall is measured over.
	hotspotTopK = 16
)

var (
	hotspotZipfS  = []float64{1.0, 1.2, 1.4}
	hotspotShards = []int{1, 4}
)

// hotspotDir returns the directory owning a rank (rank-order layout:
// the first warm/dirs ranks share dir 0).
func hotspotDir(rank int) int { return rank / (hotspotWarmPaths / hotspotDirs) }

// hotspotLayout builds the rank-ordered key space.
func hotspotLayout() []string {
	paths := make([]string, hotspotWarmPaths)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/d%02d/f%04d", hotspotDir(i), i)
	}
	return paths
}

// mdsSnap snapshots per-shard served ops and busy time so the measured
// phase can be reported as deltas.
type mdsSnap struct {
	ops  []int64
	busy []int64
}

func (e *env) snapMDS() mdsSnap {
	s := mdsSnap{ops: make([]int64, len(e.cluster.MDSes)), busy: make([]int64, len(e.cluster.MDSes))}
	for i, m := range e.cluster.MDSes {
		st := m.Stats()
		s.ops[i] = st.Lookups + st.Reads + st.Writes
		s.busy[i] = int64(m.Resource().BusyTime())
	}
	return s
}

// runHotspotPoint measures one (zipf s, shard count) cell against a
// fresh deployment. Per-shard load is reported over the measured window
// (deltas, so the warm phase doesn't blur the skew): ops served and the
// utilization of the shard's worker slots, plus the spread over the ops.
// It also returns the split candidate a rebalancer would act on: the
// deepest subtree past the workspace root with at least 10% of the
// recorded load ("" when none qualifies).
func runHotspotPoint(cfg Config, s float64) (Point, string, error) {
	dirs := []string{"/w"}
	for d := 0; d < hotspotDirs; d++ {
		dirs = append(dirs, fmt.Sprintf("/w/d%02d", d))
	}
	layout := hotspotLayout()
	z := workload.NewZipfPaths(layout, s)
	m, err := newMux(cfg, cfg.fanInClients(), dirs, layout)
	if err != nil {
		return Point{}, "", err
	}
	defer m.close()
	if _, err := m.region.Drain(0); err != nil {
		return Point{}, "", fmt.Errorf("warm drain: %w", err)
	}
	before := m.e.snapMDS()
	metrics, window, err := m.run(func(shard int) muxOp {
		// Each shard goroutine draws from its own deterministic stream.
		stream := z.Stream(int64(shard) + 1)
		return func(c, k int) (string, bool) {
			rank := stream.NextRank()
			if (c+k)%8 == 0 {
				// 1-in-8 creates, placed in the zipf-picked rank's
				// directory: new-file traffic follows the same skew as
				// reads, which is what concentrates write load on the
				// hot subtree's shard (and churns the sketch's key
				// space with client-unique names).
				return fmt.Sprintf("/w/d%02d/x%d.%d", hotspotDir(rank), c, k), true
			}
			return z.Path(rank), false
		}
	})
	if err != nil {
		return Point{}, "", err
	}
	after := m.e.snapMDS()

	metrics["warm_paths"] = hotspotWarmPaths
	metrics["dirs"] = hotspotDirs
	metrics["top_k"] = hotspotTopK
	q := m.o.HistQuantiles()[obs.HistClientOp]
	metrics["client_op_p50_ns"] = float64(q.P50)
	metrics["client_op_p99_ns"] = float64(q.P99)

	// Sketch verdicts against the generator's ground truth: recall is
	// |TopPaths(K) ∩ true top-K| / K, the acceptance headline (≥0.9
	// required at s=1.2).
	top := m.o.TopPaths(hotspotTopK)
	metrics["top_path_share"] = 0
	if len(top) > 0 {
		metrics["top_path_share"] = top[0].Share
	}
	truth := make(map[string]bool, hotspotTopK)
	for _, p := range z.Hot(hotspotTopK) {
		truth[p] = true
	}
	hit := 0
	for _, hk := range top {
		if truth[hk.Path] {
			hit++
		}
	}
	metrics["sketch_recall_top16"] = float64(hit) / hotspotTopK
	metrics["hot_subtree_share"] = 0
	hot := ""
	for _, hk := range m.o.HotSubtrees(8, 0.10) {
		if len(hk.Path) > len("/w") {
			hot, metrics["hot_subtree_share"] = hk.Path, hk.Share
			break
		}
	}

	shardOps := make([]int64, len(after.ops))
	for i := range after.ops {
		shardOps[i] = after.ops[i] - before.ops[i]
		util := 0.0
		if w := m.e.cluster.MDSes[i].Resource().Workers(); w > 0 && window > 0 {
			util = float64(after.busy[i]-before.busy[i]) / (float64(w) * float64(window))
		}
		metrics[fmt.Sprintf("shard%d_ops", i)] = float64(shardOps[i])
		metrics[fmt.Sprintf("shard%d_utilization", i)] = util
	}
	sk := obs.Skew(shardOps)
	metrics["shard_ops_max_mean_permille"] = float64(sk.MaxMeanPermille)
	metrics["shard_ops_cv_permille"] = float64(sk.CVPermille)
	return measured(metrics, m.o), hot, nil
}

// runHotspot sweeps zipf skew × MDS shard count at the scale harness's
// fan-in.
func runHotspot(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "hotspot", Title: "Hotspot telemetry under zipf skew (sketch recall, shard spread)",
		YLabel: "mixed",
		Series: []string{"sketch_recall_top16", "top_path_share", "shard_ops_max_mean_permille", "client_op_p99_ns", "virtual_ops_per_sec"},
	}
	minRecall12 := 1.0
	for _, s := range hotspotZipfS {
		for _, n := range hotspotShards {
			scfg := cfg
			scfg.MDSShards = n
			p, hot, err := runHotspotPoint(scfg, s)
			if err != nil {
				return nil, fmt.Errorf("hotspot point s=%.1f shards=%d: %w", s, n, err)
			}
			label := fmt.Sprintf("s=%.1f/%dsh", s, n)
			p.Params = map[string]string{"zipf_s": fmt.Sprintf("%.1f", s), "mds_shards": fmt.Sprint(n)}
			f.Points = append(f.Points, p)
			if s == 1.2 {
				minRecall12 = min(minRecall12, p.Metrics["sketch_recall_top16"])
			}
			if hot != "" {
				f.Note("%s: hot subtree %s carries %.0f%% of ops; shard max/mean %.2fx", label, hot,
					100*p.Metrics["hot_subtree_share"], p.Metrics["shard_ops_max_mean_permille"]/1000)
			}
		}
	}
	f.Note("top-%d sketch recall at zipf s=1.2: %.2f (acceptance ≥ 0.90)", hotspotTopK, minRecall12)
	return []*Figure{f}, nil
}
