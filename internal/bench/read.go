package bench

import (
	"fmt"
	"sync/atomic"

	"pacon/internal/core"
	"pacon/internal/obs"
	"pacon/internal/workload"

	"pacon/internal/vclock"
)

// The read experiment measures the read path's round-trip economy and
// barrier latency under a readdir+stat-heavy mix with writers flooding
// sibling subtrees, against the shipped configuration (batched
// multi-key reads, scoped barriers — reported as batched_scoped). The
// comparison against the retired per-key read path and full-drain
// barriers is frozen in EXPERIMENTS.md.
func init() { register("read", runRead) }

// readRounds is how many readdir+stat sweeps each reader performs;
// even rounds list the reader's own hot subtree, odd rounds a
// DFS-resident cold one (first touch exercises the bulk miss-load).
const readRounds = 4

// runReadVariant drives the populate and mix phases with half the
// cluster's clients (a quarter of them writers) against the shipped
// region configuration and measures the mix phase.
func runReadVariant(cfg Config) (Point, error) {
	clients := cfg.halfCluster(4)
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
	pcs := make([]*core.Client, clients)
	for i, cl := range cls {
		pcs[i] = cl.(*core.Client)
	}

	writers := clients / 4
	if writers < 1 {
		writers = 1
	}
	items := cfg.ItemsPerClient

	// Populate: every client builds its own subtree. The readers'
	// subtrees are the hot set the mix re-lists; the writers' are the
	// siblings they churn.
	runner := workload.NewRunner(cls)
	res, err := runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		dir := fmt.Sprintf("/w/t%d", idx)
		var err error
		if now, err = cl.Mkdir(now, dir, 0o755); err != nil {
			return now, 0, err
		}
		for j := 0; j < items; j++ {
			if now, err = cl.Create(now, fmt.Sprintf("%s/f%d", dir, j), 0o644); err != nil {
				return now, 0, err
			}
		}
		return now, int64(items + 1), nil
	})
	if err != nil {
		return Point{}, fmt.Errorf("populate: %w", err)
	}
	if _, err := region.Drain(res.End); err != nil {
		return Point{}, err
	}
	// Cold subtrees land on the DFS behind the region's back (the
	// administrator writes them): the first listing must bulk miss-load.
	admin := e.cluster.NewClient("admin", adminCred, 0, 0)
	for i := writers; i < clients; i++ {
		dir := fmt.Sprintf("/w/cold%d", i)
		if _, err := admin.Mkdir(0, dir, 0o777); err != nil {
			return Point{}, err
		}
		for j := 0; j < items; j++ {
			if _, err := admin.Create(0, fmt.Sprintf("%s/f%d", dir, j), 0o666); err != nil {
				return Point{}, err
			}
		}
	}

	st0 := region.Stats()
	var rpc0 int64
	for i := writers; i < clients; i++ {
		rpc0 += pcs[i].CacheRPCs()
	}

	// Mix: writers churn their own (sibling) subtrees for the whole
	// phase while readers run ls -l sweeps — readdir, then stat every
	// child through StatMulti.
	// The mix mingles barrier ops with writers, so it runs unpaced (see
	// RunPhaseWindow): virtual throughput is reported but the headline
	// metrics are RPC counts and wall-clock barrier waits.
	var readdirs, stats atomic.Int64
	mix, err := runner.RunPhaseWindow(workload.NoSkewBound, func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		if idx < writers {
			dir := fmt.Sprintf("/w/t%d", idx)
			var ops int64
			var err error
			for j := 0; j < 2*items; j++ {
				p := fmt.Sprintf("%s/c%d", dir, j)
				if now, err = cl.Create(now, p, 0o644); err != nil {
					return now, ops, err
				}
				ops++
				if j%4 == 0 {
					if now, err = cl.Remove(now, p); err != nil {
						return now, ops, err
					}
					ops++
				}
			}
			return now, ops, nil
		}
		pc := cl.(*core.Client)
		var ops int64
		for round := 0; round < readRounds; round++ {
			dir := fmt.Sprintf("/w/t%d", idx)
			if round%2 == 1 {
				dir = fmt.Sprintf("/w/cold%d", idx)
			}
			ents, done, err := pc.Readdir(now, dir)
			now = done
			if err != nil {
				return now, ops, err
			}
			readdirs.Add(1)
			ops++
			children := make([]string, len(ents))
			for k, ent := range ents {
				children[k] = dir + "/" + ent.Name
			}
			sres, done, err := pc.StatMulti(now, children)
			now = done
			if err != nil {
				return now, ops, err
			}
			for k, sr := range sres {
				if sr.Err != nil {
					return now, ops, fmt.Errorf("stat %s: %w", children[k], sr.Err)
				}
			}
			stats.Add(int64(len(sres)))
			ops += int64(len(sres))
		}
		return now, ops, nil
	})
	if err != nil {
		return Point{}, fmt.Errorf("mix: %w", err)
	}

	st1 := region.Stats()
	var rpc1 int64
	for i := writers; i < clients; i++ {
		rpc1 += pcs[i].CacheRPCs()
	}
	readOps := readdirs.Load() + stats.Load()
	bw := o.HistQuantiles()[obs.HistBarrierWait]
	return measured(map[string]float64{
		"clients":                  float64(clients),
		"readers":                  float64(clients - writers),
		"writers":                  float64(writers),
		"files_per_subtree":        float64(items),
		"rounds":                   readRounds,
		"readdirs":                 float64(readdirs.Load()),
		"stats":                    float64(stats.Load()),
		"read_ops":                 float64(readOps),
		"cache_rpcs":               float64(rpc1 - rpc0),
		"cache_rpcs_per_op":        ratio(rpc1-rpc0, readOps),
		"cache_warms":              float64(st1.CacheWarms - st0.CacheWarms),
		"barriers_scoped":          float64(st1.BarriersScoped - st0.BarriersScoped),
		"barriers_full":            float64(st1.BarriersFull - st0.BarriersFull),
		"barrier_wait_p50_ns":      float64(bw.P50),
		"barrier_wait_p95_ns":      float64(bw.P95),
		"barrier_wait_p99_ns":      float64(bw.P99),
		"virtual_ops_per_sec":      opsPerSec(mix.Ops, mix.Elapsed),
		"mds_queue_wait_ns_per_op": e.mdsQueueWaitPerOp(),
	}, o), nil
}

func runRead(cfg Config) ([]*Figure, error) {
	p, err := runReadVariant(cfg)
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	p.Params = map[string]string{"variant": "batched_scoped"}
	f := &Figure{
		ID: "read", Title: "Read path: batched reads + scoped barriers",
		YLabel: "see series",
		Series: []string{"cache_rpcs_per_op", "barrier_wait_p95_ns", "cache_warms", "barriers_scoped", "virtual_ops_per_sec"},
		Points: []Point{p},
	}
	m := p.Metrics
	f.Note("cache RPCs per read op: %.2f", m["cache_rpcs_per_op"])
	f.Note("p95 barrier wait under sibling writers: %.0fus (%.0f scoped, %.0f full barriers)",
		m["barrier_wait_p95_ns"]/1e3, m["barriers_scoped"], m["barriers_full"])
	f.Note("%.0f entries warmed into the cache from listings/miss-loads", m["cache_warms"])
	return []*Figure{f}, nil
}
