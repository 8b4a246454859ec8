package main

import (
	"fmt"
	"runtime"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// The deployment every workload runs on: a 4-node region (one cache
// server and one commit process per node) over a subtree-sharded MDS
// with 4 shards and 3 data servers, all on the in-process bus. Two
// closed-loop clients run on two of the nodes.
const (
	numNodes   = 4
	numShards  = 4
	numClients = 2
)

var (
	adminCred   = fsapi.Cred{UID: 0, GID: 0}
	appCred     = fsapi.Cred{UID: 1000, GID: 1000}
	model       = vclock.Default()
	clientNodes = [numClients]string{"node0", "node2"}
)

type deployment struct {
	bus     *rpc.Bus
	cluster *dfs.Cluster
	region  *core.Region
	clients []*client
	// runner carries the clients' virtual clocks from phase to phase;
	// ready is the virtual time set-up's drain completed.
	runner *workload.Runner
	ready  vclock.Time
}

// deploy builds the deployment for sp. A non-nil tracer wraps every
// backend and observes the bus.
func deploy(sp spec, seed int64, t *tracer) (*deployment, error) {
	bus := rpc.NewBus()
	cluster := dfs.NewClusterSharded(bus, model, adminCred, "storage0", numShards, []string{"/w"}, []string{"s1", "s2", "s3"})
	admin := cluster.NewClient("admin", adminCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w", 0o777); err != nil {
		return nil, fmt.Errorf("provision /w: %w", err)
	}
	nodes := make([]string, numNodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	f := &backendFactory{cluster: cluster, t: t}
	region, err := core.NewRegion(core.RegionConfig{
		Name:               "bench",
		Workspace:          "/w",
		Nodes:              nodes,
		Cred:               appCred,
		Model:              model,
		CacheCapacityBytes: sp.cacheBytes,
		ShardCount:         numShards,
	}, core.Deps{Bus: bus, NewBackend: f.newBackend})
	if err != nil {
		return nil, fmt.Errorf("start region: %w", err)
	}
	// NewRegion builds one backend for its workspace check and each
	// commit process builds its own from its goroutine. Wait for them
	// all, so none is mistaken for a client's.
	for f.count() < 1+numNodes {
		runtime.Gosched()
	}
	d := &deployment{bus: bus, cluster: cluster, region: region}
	wcs := make([]workload.Client, numClients)
	for i := 0; i < numClients; i++ {
		var ct *clientTrace
		if t != nil {
			ct = &clientTrace{t: t}
		}
		f.setClient(ct)
		cl, err := region.NewClient(clientNodes[i])
		f.setClient(nil)
		if err != nil {
			region.Close()
			return nil, fmt.Errorf("client on %s: %w", clientNodes[i], err)
		}
		c := newClient(cl, sp.newStream(seed, i), ct)
		d.clients = append(d.clients, c)
		wcs[i] = cl
	}
	d.runner = workload.NewRunner(wcs)
	if t != nil {
		bus.SetObserver(rpcObserver{t})
	}
	return d, nil
}

// populate is the workload's set-up: create its directories and files
// through the region and drain, with the pacer's skew bound off (a
// bounded cache's eviction holds a region lock across RPCs, which a
// tight window turns into a deadlock).
func (d *deployment) populate(sp spec) error {
	phase := func(n int, do func(c *client, i int) error) error {
		_, err := d.runner.RunPhaseWindow(workload.NoSkewBound, func(idx int, _ workload.Client, start vclock.Time) (vclock.Time, int64, error) {
			c := d.clients[idx]
			c.now = start
			var ops int64
			for i := idx; i < n; i += numClients {
				if err := do(c, i); err != nil {
					return c.now, ops, err
				}
				ops++
			}
			return c.now, ops, nil
		})
		return err
	}
	if err := phase(sp.dirs, func(c *client, i int) error { return c.setupMkdir(dirPath(i)) }); err != nil {
		return fmt.Errorf("set-up mkdir: %w", err)
	}
	if err := phase(sp.prepop, func(c *client, i int) error { return c.setupCreate(prepopPath(i)) }); err != nil {
		return fmt.Errorf("set-up create: %w", err)
	}
	done, err := d.region.Drain(d.runner.Now())
	if err != nil {
		return fmt.Errorf("set-up drain: %w", err)
	}
	d.ready = done
	return nil
}

func (d *deployment) close() {
	d.bus.SetObserver(nil)
	d.region.Close()
}
