package bench

import (
	"fmt"

	"pacon/internal/dht"
	"pacon/internal/memcache"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

func init() {
	register("fig1", fig1)
	register("fig2", fig2)
	register("fig7", fig7)
	register("fig8", fig8)
	register("fig9", fig9)
	register("fig10", fig10)
	register("fig11", fig11)
	register("fig12", fig12)
}

// clientCounts returns the paper's client scaling ladder: 1 client, then
// one full node, doubling up to the whole cluster.
func (c Config) clientCounts(includeSingle bool) []int {
	var out []int
	if includeSingle {
		out = append(out, 1)
	}
	for n := 1; n <= c.MaxNodes; n *= 2 {
		out = append(out, n*c.ClientsPerNode)
	}
	return out
}

// runPhases runs mkdir+create+stat on a fresh deployment of sys with the
// given client count, returning per-phase OPS.
func runPhases(cfg Config, sys System, clients int) (mkdir, create, stat float64, err error) {
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	if err = e.provision("/w"); err != nil {
		return
	}
	cls, err := e.clientsFor(sys, clients, "/w")
	if err != nil {
		return
	}
	md := workload.NewMdtest(cls, "/w", cfg.ItemsPerClient, 1)
	var r workload.Result
	if r, err = md.MkdirPhase(); err != nil {
		return
	}
	mkdir = r.OPS()
	if r, err = md.CreatePhase(); err != nil {
		return
	}
	create = r.OPS()
	if r, err = md.StatPhase(); err != nil {
		return
	}
	stat = r.OPS()
	return
}

// fig1 — motivation: client scalability of BeeGFS and IndexFS in file
// creation, normalized to the single-client throughput.
func fig1(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "fig1", Title: "Client Scalability (file creation, normalized)",
		YLabel: "throughput multiple vs 1 client",
		Series: []string{string(BeeGFS), string(IndexFS)},
	}
	base := map[System]float64{}
	for _, clients := range cfg.clientCounts(true) {
		row := map[string]float64{}
		for _, sys := range []System{BeeGFS, IndexFS} {
			_, create, _, err := runPhases(cfg, sys, clients)
			if err != nil {
				return nil, fmt.Errorf("fig1 %s @%d: %w", sys, clients, err)
			}
			if clients == 1 {
				base[sys] = create
			}
			row[string(sys)] = create / base[sys]
		}
		f.AddPoint(map[string]string{"clients": fmt.Sprint(clients)}, row)
	}
	last := len(f.Points) - 1
	f.Note("at %s clients: BeeGFS %.1fx, IndexFS %.1fx (paper Fig 1: both plateau far below linear)",
		f.Points[last].Params["clients"], f.Value(last, string(BeeGFS)), f.Value(last, string(IndexFS)))
	return []*Figure{f}, nil
}

// statLeavesOPS builds a fanout-5 tree of the given depth on a fresh
// deployment and measures random leaf stats.
func statLeavesOPS(cfg Config, sys System, depth int, clients int) (float64, error) {
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	if err := e.provision("/w"); err != nil {
		return 0, err
	}
	cls, err := e.clientsFor(sys, clients, "/w")
	if err != nil {
		return 0, err
	}
	md := workload.NewMdtest(cls, "/w", cfg.ItemsPerClient, 2)
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

// fig2 — motivation: path traversal cost on BeeGFS and IndexFS (random
// stat of leaf directories, fanout 5, depth 3..6).
func fig2(cfg Config) ([]*Figure, error) {
	return pathTraversal(cfg, "fig2", "Path Traversal Cost", []System{BeeGFS, IndexFS})
}

// fig9 — evaluation: same experiment including Pacon, whose batch
// permissions + full-path keys make depth irrelevant.
func fig9(cfg Config) ([]*Figure, error) {
	return pathTraversal(cfg, "fig9", "Path Traversal Overhead", []System{BeeGFS, IndexFS, Pacon})
}

func pathTraversal(cfg Config, id, title string, systems []System) ([]*Figure, error) {
	f := &Figure{
		ID: id, Title: title + " (random stat of fanout-5 leaf dirs)",
		YLabel: "OPS",
	}
	for _, s := range systems {
		f.Series = append(f.Series, string(s))
	}
	clients := cfg.MaxNodes / 2 * cfg.ClientsPerNode
	if clients < 1 {
		clients = cfg.ClientsPerNode
	}
	for depth := 3; depth <= 6; depth++ {
		row := map[string]float64{}
		for _, sys := range systems {
			ops, err := statLeavesOPS(cfg, sys, depth, clients)
			if err != nil {
				return nil, fmt.Errorf("%s %s depth %d: %w", id, sys, depth, err)
			}
			row[string(sys)] = ops
		}
		f.AddPoint(map[string]string{"depth": fmt.Sprint(depth)}, row)
	}
	for _, sys := range systems {
		s := string(sys)
		loss := 100 * (1 - f.Last(s)/f.Value(0, s))
		f.Note("%s: depth 3→6 performance loss %.0f%% (paper: BeeGFS 63%%, IndexFS 47%%, Pacon ~0%%)", s, loss)
	}
	return []*Figure{f}, nil
}

// fig7 — single-application case: mkdir / create / random stat
// throughput for 2..16 nodes (20 clients each) on all three systems.
func fig7(cfg Config) ([]*Figure, error) {
	mk := &Figure{ID: "fig7-mkdir", Title: "Single-application: mkdir", YLabel: "OPS"}
	cr := &Figure{ID: "fig7-create", Title: "Single-application: create", YLabel: "OPS"}
	st := &Figure{ID: "fig7-stat", Title: "Single-application: random stat", YLabel: "OPS"}
	systems := []System{BeeGFS, IndexFS, Pacon}
	for _, f := range []*Figure{mk, cr, st} {
		for _, s := range systems {
			f.Series = append(f.Series, string(s))
		}
	}
	for nodes := 2; nodes <= cfg.MaxNodes; nodes *= 2 {
		rows := [3]map[string]float64{{}, {}, {}}
		for _, sys := range systems {
			m, c, s, err := runPhases(cfg, sys, nodes*cfg.ClientsPerNode)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s @%d nodes: %w", sys, nodes, err)
			}
			rows[0][string(sys)], rows[1][string(sys)], rows[2][string(sys)] = m, c, s
		}
		x := map[string]string{"nodes": fmt.Sprint(nodes)}
		mk.AddPoint(x, rows[0])
		cr.AddPoint(x, rows[1])
		st.AddPoint(x, rows[2])
	}
	cr.Note("at %d nodes: Pacon/BeeGFS = %.1fx (paper: >76.4x), Pacon/IndexFS = %.1fx (paper: >8.8x)",
		cfg.MaxNodes, cr.Last(string(Pacon))/cr.Last(string(BeeGFS)), cr.Last(string(Pacon))/cr.Last(string(IndexFS)))
	st.Note("at %d nodes: Pacon/BeeGFS = %.1fx (paper: >6.5x), Pacon/IndexFS = %.1fx (paper: >2.6x)",
		cfg.MaxNodes, st.Last(string(Pacon))/st.Last(string(BeeGFS)), st.Last(string(Pacon))/st.Last(string(IndexFS)))
	return []*Figure{mk, cr, st}, nil
}

// fig8 — multi-application case: 2..16 concurrent applications over a
// fixed 320-client cluster, overall throughput per op.
func fig8(cfg Config) ([]*Figure, error) {
	mk := &Figure{ID: "fig8-mkdir", Title: "Multi-application: mkdir", YLabel: "total OPS"}
	cr := &Figure{ID: "fig8-create", Title: "Multi-application: create", YLabel: "total OPS"}
	st := &Figure{ID: "fig8-stat", Title: "Multi-application: random stat", YLabel: "total OPS"}
	systems := []System{BeeGFS, IndexFS, Pacon}
	for _, f := range []*Figure{mk, cr, st} {
		for _, s := range systems {
			f.Series = append(f.Series, string(s))
		}
	}
	totalClients := cfg.MaxNodes * cfg.ClientsPerNode
	for apps := 2; apps <= cfg.MaxNodes; apps *= 2 {
		rows := [3]map[string]float64{{}, {}, {}}
		for _, sys := range systems {
			m, c, s, err := runMultiApp(cfg, sys, apps, totalClients)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s @%d apps: %w", sys, apps, err)
			}
			rows[0][string(sys)], rows[1][string(sys)], rows[2][string(sys)] = m, c, s
		}
		x := map[string]string{"apps": fmt.Sprint(apps)}
		mk.AddPoint(x, rows[0])
		cr.AddPoint(x, rows[1])
		st.AddPoint(x, rows[2])
	}
	cr.Note("multi-app create: Pacon/BeeGFS = %.1fx (paper: >10x), Pacon/IndexFS = %.2fx (paper: >1.07x)",
		cr.Last(string(Pacon))/cr.Last(string(BeeGFS)), cr.Last(string(Pacon))/cr.Last(string(IndexFS)))
	return []*Figure{mk, cr, st}, nil
}

// runMultiApp runs `apps` concurrent mdtest instances over disjoint
// workdirs, the cluster's nodes split evenly among them (paper §IV.B).
func runMultiApp(cfg Config, sys System, apps, totalClients int) (mkdir, create, stat float64, err error) {
	e := newEnv(cfg, cfg.MaxNodes)
	defer e.close()

	dirs := make([]string, apps)
	for a := range dirs {
		dirs[a] = fmt.Sprintf("/app%d", a)
	}
	if err = e.provision(dirs...); err != nil {
		return
	}

	perApp := totalClients / apps
	nodesPerApp := len(e.nodes) / apps
	if nodesPerApp < 1 {
		nodesPerApp = 1
	}

	// All apps' clients run in one concurrent phase; client i belongs to
	// app i/perApp and works in that app's directory on its node slice.
	clients := make([]workload.Client, 0, totalClients)
	switch sys {
	case Pacon:
		for a := 0; a < apps; a++ {
			lo := (a * nodesPerApp) % len(e.nodes)
			appNodes := e.nodes[lo : lo+nodesPerApp]
			region, rerr := e.paconRegion(fmt.Sprintf("app%d", a), dirs[a], appNodes)
			if rerr != nil {
				err = rerr
				return
			}
			for i := 0; i < perApp; i++ {
				c, cerr := region.NewClient(appNodes[i%len(appNodes)])
				if cerr != nil {
					err = cerr
					return
				}
				clients = append(clients, c)
			}
		}
	case IndexFS:
		var all []workload.Client
		all, err = e.indexfsClients(totalClients)
		if err != nil {
			return
		}
		clients = all
	default:
		clients = e.beegfsClients(totalClients)
	}

	dirFor := func(i int) string { return dirs[i/perApp%apps] }
	runner := workload.NewRunner(clients)
	items := cfg.ItemsPerClient

	phase := func(kind string) (float64, error) {
		res, perr := runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
			dir := dirFor(idx)
			var ferr error
			for j := 0; j < items; j++ {
				name := fmt.Sprintf("%s/%s.%d.%d", dir, kind, idx, j)
				switch kind {
				case "d":
					now, ferr = cl.Mkdir(now, name, 0o755)
				case "f":
					now, ferr = cl.Create(now, name, 0o644)
				default: // random stat of this app's files
					_, now, ferr = cl.Stat(now, fmt.Sprintf("%s/f.%d.%d", dir,
						(idx/perApp)*perApp+(idx*7+j*13)%perApp, (j*31+idx)%items))
				}
				if ferr != nil {
					return now, 0, ferr
				}
			}
			return now, int64(items), nil
		})
		if perr != nil {
			return 0, perr
		}
		return res.OPS(), nil
	}

	if mkdir, err = phase("d"); err != nil {
		return
	}
	if create, err = phase("f"); err != nil {
		return
	}
	stat, err = phase("s")
	return
}

// fig10 — Pacon overhead: single client, no concurrency, mkdir
// throughput vs raw Memcached item insertion, across namespace depths.
func fig10(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "fig10", Title: "Pacon Overhead (single client mkdir vs raw memcached insert)",
		YLabel: "OPS",
		Series: []string{string(BeeGFS), string(IndexFS), string(Pacon), string(Memcached)},
	}
	items := cfg.ItemsPerClient * 4 // single client: cheap, use more samples
	for depth := 3; depth <= 6; depth++ {
		row := map[string]float64{}
		for _, sys := range []System{BeeGFS, IndexFS, Pacon} {
			ops, err := singleClientMkdirOPS(cfg, sys, depth, items)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s depth %d: %w", sys, depth, err)
			}
			row[string(sys)] = ops
		}
		ops, err := rawMemcachedInsertOPS(cfg, depth, items)
		if err != nil {
			return nil, err
		}
		row[string(Memcached)] = ops
		f.AddPoint(map[string]string{"depth": fmt.Sprint(depth)}, row)
	}
	ratio := f.Last(string(Pacon)) / f.Last(string(Memcached))
	f.Note("Pacon reaches %.0f%% of raw memcached throughput (paper: >64.6%%)", 100*ratio)
	return []*Figure{f}, nil
}

// singleClientMkdirOPS measures one client creating subdirectories under
// a parent at the given namespace depth.
func singleClientMkdirOPS(cfg Config, sys System, depth, items int) (float64, error) {
	e := newEnv(cfg, cfg.MaxNodes)
	defer e.close()
	if err := e.provision("/w"); err != nil {
		return 0, err
	}
	// Build the deep parent chain /w/l1/.../l(depth-1) as the app.
	cls, err := e.clientsFor(sys, 1, "/w")
	if err != nil {
		return 0, err
	}
	cl := cls[0]
	parent := "/w"
	now := vclock.Time(0)
	for i := 1; i < depth; i++ {
		parent = fmt.Sprintf("%s/l%d", parent, i)
		if now, err = cl.Mkdir(now, parent, 0o755); err != nil {
			return 0, err
		}
	}
	start := now
	for j := 0; j < items; j++ {
		if now, err = cl.Mkdir(now, fmt.Sprintf("%s/m%d", parent, j), 0o755); err != nil {
			return 0, err
		}
	}
	return float64(items) / now.Sub(start).Seconds(), nil
}

// rawMemcachedInsertOPS is the memaslap baseline: one client inserting
// items into a distributed cache spanning the cluster's nodes, with keys
// shaped like the equivalent paths.
func rawMemcachedInsertOPS(cfg Config, depth, items int) (float64, error) {
	bus := rpc.NewBus()
	ring := dht.New(0)
	for i := 0; i < cfg.MaxNodes; i++ {
		addr := fmt.Sprintf("node%d/mc", i)
		s := memcache.NewServer(addr, memcache.ServerConfig{Model: cfg.Model, Workers: cfg.Model.CacheWorkers})
		bus.Register(addr, s.Service())
		ring.Add(addr)
	}
	client := memcache.NewClient(rpc.NewCaller(bus, cfg.Model, "node0"), ring)

	prefix := "/w"
	for i := 1; i < depth; i++ {
		prefix = fmt.Sprintf("%s/l%d", prefix, i)
	}
	value := make([]byte, 64) // a stat-sized item
	now := vclock.Time(0)
	start := now
	for j := 0; j < items; j++ {
		// memaslap issues one set per item; charge the same client-side
		// overhead Pacon's op path pays for marshaling.
		now = now.Add(cfg.Model.ClientOverhead)
		_, done, err := client.Set(now, fmt.Sprintf("%s/m%d", prefix, j), value, 0)
		if err != nil {
			return 0, err
		}
		now = done
	}
	return float64(items) / now.Sub(start).Seconds(), nil
}

// fig11 — scalability: file-creation throughput normalized to each
// system's single-client run, growing nodes with clients.
func fig11(cfg Config) ([]*Figure, error) {
	norm := &Figure{
		ID: "fig11", Title: "Scalability (file creation, normalized per system)",
		YLabel: "multiple of own 1-client throughput",
		Series: []string{string(BeeGFS), string(IndexFS), string(Pacon)},
	}
	abs := &Figure{
		ID: "fig11-abs", Title: "Scalability (file creation, absolute)",
		YLabel: "OPS",
		Series: []string{string(BeeGFS), string(IndexFS), string(Pacon)},
	}
	base := map[System]float64{}
	for _, clients := range cfg.clientCounts(true) {
		nrow := map[string]float64{}
		arow := map[string]float64{}
		for _, sys := range []System{BeeGFS, IndexFS, Pacon} {
			_, create, _, err := runPhases(cfg, sys, clients)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s @%d: %w", sys, clients, err)
			}
			if clients == 1 {
				base[sys] = create
			}
			nrow[string(sys)] = create / base[sys]
			arow[string(sys)] = create
		}
		x := map[string]string{"clients": fmt.Sprint(clients)}
		norm.AddPoint(x, nrow)
		abs.AddPoint(x, arow)
	}
	norm.Note("at %s clients: Pacon scales %.1fx better than BeeGFS (paper: ~16.5x) and %.1fx better than IndexFS (paper: ~2.8x)",
		norm.Points[len(norm.Points)-1].Params["clients"],
		norm.Last(string(Pacon))/norm.Last(string(BeeGFS)),
		norm.Last(string(Pacon))/norm.Last(string(IndexFS)))
	abs.Note("Pacon absolute create throughput at max clients: %.2fM OPS (paper: >1M OPS at 320 clients)",
		abs.Last(string(Pacon))/1e6)
	return []*Figure{norm, abs}, nil
}

// fig12 — MADbench2: runtime breakdown (init/read/write/other) for
// BeeGFS and Pacon, normalized to BeeGFS's total.
func fig12(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "fig12", Title: "MADbench2 runtime breakdown (normalized to BeeGFS total)",
		YLabel: "fraction of BeeGFS total runtime",
		Series: []string{string(BeeGFS), string(Pacon)},
	}
	bee, err := RunMADbench(cfg, BeeGFS)
	if err != nil {
		return nil, fmt.Errorf("fig12 BeeGFS: %w", err)
	}
	pac, err := RunMADbench(cfg, Pacon)
	if err != nil {
		return nil, fmt.Errorf("fig12 Pacon: %w", err)
	}
	total := bee.Total().Seconds()
	add := func(part string, b, p float64) {
		f.AddPoint(map[string]string{"part": part}, map[string]float64{
			string(BeeGFS): b / total,
			string(Pacon):  p / total,
		})
	}
	add("init", bee.Init.Seconds(), pac.Init.Seconds())
	add("read", bee.Read.Seconds(), pac.Read.Seconds())
	add("write", bee.Write.Seconds(), pac.Write.Seconds())
	add("other", bee.Other.Seconds(), pac.Other.Seconds())
	add("total", bee.Total().Seconds(), pac.Total().Seconds())
	f.Note("overall runtime Pacon/BeeGFS = %.2f (paper: ~1.0 — data-intensive, metadata savings small)",
		pac.Total().Seconds()/bee.Total().Seconds())
	f.Note("init Pacon/BeeGFS = %.2f (paper: slightly smaller for Pacon)",
		pac.Init.Seconds()/bee.Init.Seconds())
	return []*Figure{f}, nil
}
