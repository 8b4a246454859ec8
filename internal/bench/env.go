// Package bench is the experiment harness: one runner per figure of the
// paper's motivation and evaluation sections (Figs 1, 2, 7, 8, 9, 10,
// 11, 12), each rebuilding a fresh deployment per data point and driving
// it with the workload package. Every experiment returns Figures, and
// JSON renders one experiment's figures as its machine-readable report.
// cmd/paconbench and bench_test.go are thin wrappers over this package.
package bench

import (
	"fmt"
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/indexfs"
	"pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// System identifies a system under test.
type System string

// Systems compared in the paper.
const (
	BeeGFS    System = "BeeGFS"
	IndexFS   System = "IndexFS"
	Pacon     System = "Pacon"
	Memcached System = "Memcached" // raw distributed cache (Fig 10 baseline)
)

// Config scales the whole harness.
type Config struct {
	// Model is the latency model (Default() if zero).
	Model vclock.LatencyModel
	// MaxNodes is the client-cluster size (paper: 16).
	MaxNodes int
	// ClientsPerNode is the per-node client count (paper: 20).
	ClientsPerNode int
	// ItemsPerClient is the per-client op count per phase.
	ItemsPerClient int
	// MADbenchProcsPerNode and MADbenchFileMB size Fig 12.
	MADbenchProcsPerNode int
	MADbenchFileMB       int
	// ScaleClients are the simulated-client counts the scale experiment
	// sweeps (default 160, 10k, 100k, 1M). ScaleOpsBudget is the total
	// operation budget per point, split evenly across the simulated
	// clients (default 2²⁰).
	ScaleClients   []int
	ScaleOpsBudget int
	// MDSShards deploys the subtree-partitioned metadata service with
	// this many MDS shards instead of the single shared-tree MDS
	// (0 = unsharded; 1 = sharded code path with one shard, the honest
	// router-overhead baseline). The shard sweep sets this per point.
	MDSShards int
	// ShardSweep lists the MDS shard counts the shards experiment runs
	// the commit, read and scale workloads at.
	ShardSweep []int
}

// Default returns the paper-scale configuration (runs in minutes).
func Default() Config {
	return Config{
		Model:                vclock.Default(),
		MaxNodes:             16,
		ClientsPerNode:       20,
		ItemsPerClient:       100,
		MADbenchProcsPerNode: 16,
		MADbenchFileMB:       4,
		ScaleClients:         []int{160, 10_000, 100_000, 1_000_000},
		ScaleOpsBudget:       1 << 20,
		ShardSweep:           []int{1, 2, 4, 8},
	}
}

// Quick returns a reduced configuration for smoke runs and go test.
func Quick() Config {
	return Config{
		Model:                vclock.Default(),
		MaxNodes:             8,
		ClientsPerNode:       10,
		ItemsPerClient:       30,
		MADbenchProcsPerNode: 4,
		MADbenchFileMB:       1,
		ScaleClients:         []int{160, 10_000},
		ScaleOpsBudget:       100_000,
		ShardSweep:           []int{1, 2, 4},
	}
}

var (
	adminCred = fsapi.Cred{UID: 0, GID: 0}
	appCred   = fsapi.Cred{UID: 1000, GID: 1000}
)

// env is one fresh deployment: a DFS cluster plus (lazily) IndexFS
// servers or Pacon regions over a set of client nodes.
type env struct {
	cfg     Config
	bus     *rpc.Bus
	cluster *dfs.Cluster
	nodes   []string

	indexfs *indexfs.Cluster
	regions []*core.Region

	// obs, when non-nil, instruments regions started in this env and the
	// transport. Wall-clock only; virtual-time results are unaffected.
	obs *obs.Obs

	provisioned []string
}

// instrument attaches an observability sink to the deployment: regions
// created after this call trace their ops into it, and every RPC on the
// bus reports its wall latency.
func (e *env) instrument(o *obs.Obs) {
	e.obs = o
	e.bus.SetObserver(o)
	e.cluster.RegisterHotMetrics(o)
}

// newEnv builds a deployment with n client nodes and the paper's storage
// side (1 MDS + 3 data servers).
func newEnv(cfg Config, n int) *env {
	bus := rpc.NewBus()
	var cluster *dfs.Cluster
	if cfg.MDSShards >= 1 {
		// Subtree-partitioned MDS pool: /w (every experiment's workspace)
		// is the spread root, so each client subtree under it hashes to
		// one shard.
		cluster = dfs.NewClusterSharded(bus, cfg.Model, adminCred, "storage0", cfg.MDSShards, []string{"/w"}, []string{"s1", "s2", "s3"})
	} else {
		cluster = dfs.NewCluster(bus, cfg.Model, adminCred, "storage0", []string{"s1", "s2", "s3"})
	}
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	return &env{cfg: cfg, bus: bus, cluster: cluster, nodes: nodes}
}

// mdsQueueWaitPerOp returns the mean virtual queueing delay per
// metadata op across the deployment's MDS pool, in nanoseconds: time a
// request arriving at an MDS spent waiting for a free worker slot.
// This is virtual-model time (unlike the wall-clock critpath
// histograms), so it is the number that shows a saturated metadata
// service — and how sharding relieves it.
func (e *env) mdsQueueWaitPerOp() float64 {
	var wait vclock.Duration
	var ops int64
	for _, m := range e.cluster.MDSes {
		res := m.Resource()
		wait += res.QueueWait()
		ops += res.Ops()
	}
	if ops == 0 {
		return 0
	}
	return float64(wait) / float64(ops)
}

// close tears down whatever was started.
func (e *env) close() {
	for _, r := range e.regions {
		r.Close()
	}
	if e.indexfs != nil {
		e.indexfs.Close()
	}
}

// provision creates a world-accessible directory as the administrator —
// on the DFS, and on the IndexFS namespace too if it is (or becomes)
// active: IndexFS manages its own metadata above the DFS.
func (e *env) provision(dirs ...string) error {
	admin := e.cluster.NewClient("admin", adminCred, 0, 0)
	for _, d := range dirs {
		if _, err := admin.Mkdir(0, d, 0o777); err != nil {
			return err
		}
	}
	e.provisioned = append(e.provisioned, dirs...)
	if e.indexfs != nil {
		return e.provisionIndexFS(dirs)
	}
	return nil
}

func (e *env) provisionIndexFS(dirs []string) error {
	admin := e.indexfs.NewClient(e.nodes[0], adminCred, 0, false)
	for _, d := range dirs {
		if _, err := admin.Mkdir(0, d, 0o777); err != nil {
			return err
		}
	}
	return nil
}

// beegfsClients returns strong-consistency DFS clients spread over the
// nodes (the paper's BeeGFS baseline).
func (e *env) beegfsClients(n int) []workload.Client {
	out := make([]workload.Client, n)
	for i := range out {
		out[i] = e.cluster.NewClient(e.nodes[i%len(e.nodes)], appCred, 0, 0)
	}
	return out
}

// indexfsClients starts an IndexFS deployment co-located with the client
// nodes (the paper's fair comparison) and returns its clients.
func (e *env) indexfsClients(n int) ([]workload.Client, error) {
	if e.indexfs == nil {
		c, err := indexfs.NewCluster(e.bus, e.cfg.Model, e.nodes, indexfs.ClusterConfig{})
		if err != nil {
			return nil, err
		}
		e.indexfs = c
		if err := e.provisionIndexFS(e.provisioned); err != nil {
			return nil, err
		}
	}
	out := make([]workload.Client, n)
	for i := range out {
		out[i] = e.indexfs.NewClient(e.nodes[i%len(e.nodes)], appCred, 1024, false)
	}
	return out, nil
}

// paconRegion starts a consistent region over the given nodes with
// workspace ws.
func (e *env) paconRegion(name, ws string, nodes []string) (*core.Region, error) {
	region, err := core.NewRegion(core.RegionConfig{
		Name:      name,
		Workspace: ws,
		Nodes:     nodes,
		Cred:      appCred,
		Model:     e.cfg.Model,
	}, core.Deps{
		Bus: e.bus,
		Obs: e.obs,
		NewBackend: func(node string) core.Backend {
			return e.cluster.NewClient(node, appCred, 4096, time.Hour)
		},
	})
	if err != nil {
		return nil, err
	}
	e.regions = append(e.regions, region)
	return region, nil
}

// paconClients starts one region over all nodes and returns n clients.
func (e *env) paconClients(n int, ws string) ([]workload.Client, error) {
	region, err := e.paconRegion("bench", ws, e.nodes)
	if err != nil {
		return nil, err
	}
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

// clientsFor builds n clients of the given system working under ws.
func (e *env) clientsFor(sys System, n int, ws string) ([]workload.Client, error) {
	switch sys {
	case BeeGFS:
		return e.beegfsClients(n), nil
	case IndexFS:
		return e.indexfsClients(n)
	case Pacon:
		return e.paconClients(n, ws)
	default:
		return nil, fmt.Errorf("bench: unknown system %q", sys)
	}
}

// nodesFor returns how many client nodes serve `clients` clients at the
// configured per-node density (the paper grows nodes with clients).
func (c Config) nodesFor(clients int) int {
	n := (clients + c.ClientsPerNode - 1) / c.ClientsPerNode
	if n < 1 {
		n = 1
	}
	if n > c.MaxNodes {
		n = c.MaxNodes
	}
	return n
}

// halfCluster is the commit and read experiments' client population:
// half the full cluster's clients, at least min.
func (c Config) halfCluster(min int) int {
	n := c.nodesFor(c.MaxNodes*c.ClientsPerNode) * c.ClientsPerNode / 2
	if n < min {
		n = min
	}
	return n
}

// fanInClients is the multiplexed fan-in the hotspot experiment and the
// scale shard sweep run at: the largest configured scale point at or
// below 10k simulated clients (harness cost, not model cost, dominates
// above that).
func (c Config) fanInClients() int {
	clients := 0
	for _, n := range c.scaleScales() {
		if n <= 10_000 && n > clients {
			clients = n
		}
	}
	if clients == 0 {
		clients = c.scaleScales()[0]
	}
	return clients
}

// opsPerSec is ops per second of virtual time (0 for an empty window).
func opsPerSec(ops int64, elapsed vclock.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// ratio is num/den (0 when den is 0).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
