package bench

import (
	"fmt"

	"pacon/internal/core"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// Ablations isolate Pacon's three main design choices by switching each
// off individually:
//
//	abl-async  — asynchronous commit (Benefit 3): Pacon with SyncCommit
//	             applies every creation to the DFS before returning.
//	abl-perm   — batch permission management (§III.C): Pacon with
//	             HierarchicalPermCheck walks every path component through
//	             the cache.
//	abl-inline — inline small files (§III.D.2): threshold 1 byte forces
//	             every write through the DFS data path.
func init() {
	register("abl-async", ablAsync)
	register("abl-perm", ablPerm)
	register("abl-inline", ablInline)
}

// paconVariantClients builds a region with a config mutation applied.
func (e *env) paconVariantClients(n int, ws string, mutate func(*core.RegionConfig)) ([]workload.Client, error) {
	cfg := core.RegionConfig{
		Name:      "ablation",
		Workspace: ws,
		Nodes:     e.nodes,
		Cred:      appCred,
		Model:     e.cfg.Model,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	region, err := core.NewRegion(cfg, core.Deps{
		Bus: e.bus,
		Obs: e.obs,
		NewBackend: func(node string) core.Backend {
			return e.cluster.NewClient(node, appCred, 4096, 1<<40)
		},
	})
	if err != nil {
		return nil, err
	}
	e.regions = append(e.regions, region)
	out := make([]workload.Client, n)
	for i := range out {
		c, err := region.NewClient(e.nodes[i%len(e.nodes)])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// createOPSVariant measures the create phase for a Pacon variant.
func createOPSVariant(cfg Config, clients int, mutate func(*core.RegionConfig)) (float64, error) {
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	if err := e.provision("/w"); err != nil {
		return 0, err
	}
	cls, err := e.paconVariantClients(clients, "/w", mutate)
	if err != nil {
		return 0, err
	}
	md := workload.NewMdtest(cls, "/w", cfg.ItemsPerClient, 3)
	res, err := md.CreatePhase()
	if err != nil {
		return 0, err
	}
	return res.OPS(), nil
}

// ablAsync — how much of Pacon's win is the asynchronous commit?
func ablAsync(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "abl-async", Title: "Ablation: asynchronous vs synchronous commit (create)",
		YLabel: "OPS",
		Series: []string{"Pacon", "Pacon-sync-commit", "BeeGFS"},
	}
	for _, clients := range cfg.clientCounts(false) {
		row := map[string]float64{}
		async, err := createOPSVariant(cfg, clients, nil)
		if err != nil {
			return nil, err
		}
		row["Pacon"] = async
		sync, err := createOPSVariant(cfg, clients, func(rc *core.RegionConfig) { rc.SyncCommit = true })
		if err != nil {
			return nil, err
		}
		row["Pacon-sync-commit"] = sync
		_, bee, _, err := runPhases(cfg, BeeGFS, clients)
		if err != nil {
			return nil, err
		}
		row["BeeGFS"] = bee
		f.AddPoint(map[string]string{"clients": fmt.Sprint(clients)}, row)
	}
	f.Note("async commit contributes %.1fx of Pacon's create throughput at max scale",
		f.Last("Pacon")/f.Last("Pacon-sync-commit"))
	f.Note("synchronous Pacon still beats raw BeeGFS %.1fx (cache absorbs reads, MDS still bounds writes)",
		f.Last("Pacon-sync-commit")/f.Last("BeeGFS"))
	return []*Figure{f}, nil
}

// ablPerm — what does batch permission management buy over hierarchical
// checking inside Pacon?
func ablPerm(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "abl-perm", Title: "Ablation: batch vs hierarchical permission check (random stat of leaf dirs)",
		YLabel: "OPS",
		Series: []string{"Pacon-batch", "Pacon-hierarchical"},
	}
	clients := cfg.MaxNodes / 2 * cfg.ClientsPerNode
	if clients < 1 {
		clients = cfg.ClientsPerNode
	}
	run := func(depth int, hier bool) (float64, error) {
		e := newEnv(cfg, cfg.nodesFor(clients))
		defer e.close()
		if err := e.provision("/w"); err != nil {
			return 0, err
		}
		cls, err := e.paconVariantClients(clients, "/w", func(rc *core.RegionConfig) {
			rc.HierarchicalPermCheck = hier
		})
		if err != nil {
			return 0, err
		}
		md := workload.NewMdtest(cls, "/w", cfg.ItemsPerClient, 4)
		tree, err := md.BuildTree(5, depth)
		if err != nil {
			return 0, err
		}
		res, err := md.StatLeavesPhase(tree)
		if err != nil {
			return 0, err
		}
		return res.OPS(), nil
	}
	for depth := 3; depth <= 6; depth++ {
		row := map[string]float64{}
		batch, err := run(depth, false)
		if err != nil {
			return nil, fmt.Errorf("abl-perm depth %d: %w", depth, err)
		}
		hier, err := run(depth, true)
		if err != nil {
			return nil, fmt.Errorf("abl-perm depth %d hier: %w", depth, err)
		}
		row["Pacon-batch"], row["Pacon-hierarchical"] = batch, hier
		f.AddPoint(map[string]string{"depth": fmt.Sprint(depth)}, row)
	}
	f.Note("at depth 6, batch permissions deliver %.1fx over per-component checking",
		f.Last("Pacon-batch")/f.Last("Pacon-hierarchical"))
	hierLoss := 100 * (1 - f.Last("Pacon-hierarchical")/f.Value(0, "Pacon-hierarchical"))
	f.Note("hierarchical Pacon loses %.0f%% from depth 3→6 — the traversal cost returns without the batch scheme", hierLoss)
	return []*Figure{f}, nil
}

// ablInline — small-file inlining: write+read of 1 KiB files with and
// without the inline path.
func ablInline(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "abl-inline", Title: "Ablation: inline small files vs DFS write-through (1 KiB create+write+read)",
		YLabel: "file round-trips per second",
		Series: []string{"Pacon-inline", "Pacon-no-inline"},
	}
	run := func(clients, threshold int) (float64, error) {
		e := newEnv(cfg, cfg.nodesFor(clients))
		defer e.close()
		if err := e.provision("/w"); err != nil {
			return 0, err
		}
		cls, err := e.paconVariantClients(clients, "/w", func(rc *core.RegionConfig) {
			rc.SmallFileThreshold = threshold
		})
		if err != nil {
			return 0, err
		}
		runner := workload.NewRunner(cls)
		payload := make([]byte, 1024)
		items := cfg.ItemsPerClient
		res, err := runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
			fc := cl.(workload.FileClient)
			var err error
			for j := 0; j < items; j++ {
				p := fmt.Sprintf("/w/s.%d.%d", idx, j)
				if now, err = fc.Create(now, p, 0o644); err != nil {
					return now, 0, err
				}
				if now, err = fc.WriteAt(now, p, 0, payload); err != nil {
					return now, 0, err
				}
				data, done, rerr := fc.ReadAt(now, p, 0, 1024)
				now = done
				if rerr != nil {
					return now, 0, rerr
				}
				if len(data) != 1024 {
					return now, 0, fmt.Errorf("short read: %d", len(data))
				}
			}
			return now, int64(items), nil
		})
		if err != nil {
			return 0, err
		}
		return res.OPS(), nil
	}
	for _, clients := range cfg.clientCounts(false) {
		row := map[string]float64{}
		inline, err := run(clients, 4096)
		if err != nil {
			return nil, err
		}
		none, err := run(clients, 1)
		if err != nil {
			return nil, err
		}
		row["Pacon-inline"], row["Pacon-no-inline"] = inline, none
		f.AddPoint(map[string]string{"clients": fmt.Sprint(clients)}, row)
	}
	f.Note("inlining small files yields %.1fx on 1 KiB file round-trips at max scale",
		f.Last("Pacon-inline")/f.Last("Pacon-no-inline"))
	return []*Figure{f}, nil
}
