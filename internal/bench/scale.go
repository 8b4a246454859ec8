package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"pacon/internal/core"
	"pacon/internal/obs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// The scale experiment measures how virtual throughput holds up as the
// simulated client population grows from hundreds to a million. A
// goroutine per client stops being viable long before 10⁶ — the Go
// scheduler and the pacer both become the bottleneck under test instead
// of the metadata service — so the harness multiplexes: at most
// maxShardGoroutines shard goroutines each own clients/S simulated
// clients and advance their virtual clocks round-robin, one operation
// per client per sweep. Sweeping keeps every clock in a shard within
// about one operation of its siblings, so the virtual-time overlap that
// drives resource queueing is preserved even though only S goroutines
// exist in real time.
func init() { register("scale", runScale) }

// maxShardGoroutines caps real concurrency: each shard goroutine
// multiplexes clients/S simulated client clocks.
const maxShardGoroutines = 64

// scaleWindow is the pacer window for the scale phase. A shard
// publishes whichever simulated clock it is currently advancing, so its
// published time wobbles over the intra-shard spread (about one
// operation, since sweeps are round-robin); the window is widened past
// that spread so the wobble does not read as skew and stall the shards
// against each other.
const scaleWindow = 20 * vclock.DefaultPacerWindow

// scaleWarmPaths is the shared stat working set (pre-created files).
const scaleWarmPaths = 1024

// scaleScales returns the client counts to sweep.
func (c Config) scaleScales() []int {
	if len(c.ScaleClients) > 0 {
		return c.ScaleClients
	}
	return []int{160, 10_000, 100_000, 1_000_000}
}

// scaleBudget returns the total-op budget per point.
func (c Config) scaleBudget() int {
	if c.ScaleOpsBudget > 0 {
		return c.ScaleOpsBudget
	}
	return 1 << 20
}

// muxOp picks simulated client c's k-th operation: stat path, or create
// it when create is set.
type muxOp func(c, k int) (path string, create bool)

// mux is the multiplexed-client harness behind the scale and hotspot
// experiments: one fresh instrumented deployment whose region serves at
// most maxShardGoroutines shard goroutines, each standing in for
// clients/shards simulated clients.
type mux struct {
	cfg     Config
	e       *env
	o       *obs.Obs
	region  *core.Region
	runner  *workload.Runner
	clients int
	shards  int
	start   time.Time
}

// newMux deploys the harness for `clients` simulated clients, provisions
// dirs, and runs the warm phase: warm is pre-created, striped over the
// shard goroutines, and RunPhase's exit is the barrier before measuring.
// The caller closes the returned harness.
func newMux(cfg Config, clients int, dirs, warm []string) (*mux, error) {
	m := &mux{cfg: cfg, clients: clients, shards: min(clients, maxShardGoroutines), start: time.Now()}
	m.e = newEnv(cfg, cfg.nodesFor(clients))
	// Tracing runs live at the default 1-in-64 head rate: the point is to
	// measure the service with its observability on, and to prove the
	// sampler survives a million multiplexed clients.
	m.o = obs.New()
	m.e.instrument(m.o)
	if err := m.e.provision(dirs...); err != nil {
		m.close()
		return nil, err
	}
	cls, err := m.e.paconClients(m.shards, "/w")
	if err != nil {
		m.close()
		return nil, err
	}
	m.region = m.e.regions[len(m.e.regions)-1]
	m.runner = workload.NewRunner(cls)
	_, err = m.runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		var ops int64
		for i := idx; i < len(warm); i += m.shards {
			var err error
			if now, err = cl.Create(now, warm[i], 0o644); err != nil {
				return now, ops, err
			}
			ops++
		}
		return now, ops, nil
	})
	if err != nil {
		m.close()
		return nil, fmt.Errorf("warm phase: %w", err)
	}
	return m, nil
}

func (m *mux) close() { m.e.close() }

// run is the measured phase plus drain. Each simulated client performs
// the budget's share of operations, chosen by the muxOp that newOp
// returns for its shard goroutine (so per-shard state, like a zipf
// stream, stays goroutine-local). It returns the point's common metrics
// and the measured virtual window.
func (m *mux) run(newOp func(shard int) muxOp) (map[string]float64, vclock.Duration, error) {
	clients, shards := m.clients, m.shards
	opsPer := max(m.cfg.scaleBudget()/clients, 1)
	var creates, stats atomic.Int64
	res, err := m.runner.RunPhaseWindow(scaleWindow, func(idx int, cl workload.Client, phaseStart vclock.Time) (vclock.Time, int64, error) {
		// This shard owns simulated clients {c : c % shards == idx},
		// each with its own virtual clock. Sweeps advance them
		// round-robin: one op per client per sweep, so sibling clocks
		// stay within about one operation of each other.
		op := newOp(idx)
		n := (clients - idx + shards - 1) / shards
		clocks := make([]vclock.Time, n)
		for i := range clocks {
			clocks[i] = phaseStart
		}
		var ops, myCreates int64
		for k := 0; k < opsPer; k++ {
			for i := 0; i < n; i++ {
				c := idx + i*shards
				now := clocks[i]
				path, create := op(c, k)
				var err error
				if create {
					now, err = cl.Create(now, path, 0o644)
					myCreates++
				} else {
					_, now, err = cl.Stat(now, path)
				}
				if err != nil {
					return now, ops, err
				}
				clocks[i] = now
				ops++
			}
		}
		end := phaseStart
		for _, t := range clocks {
			if t > end {
				end = t
			}
		}
		creates.Add(myCreates)
		stats.Add(ops - myCreates)
		return end, ops, nil
	})
	if err != nil {
		return nil, 0, err
	}
	done, err := m.region.Drain(res.End)
	if err != nil {
		return nil, 0, err
	}
	window := vclock.Duration(done - res.Start)
	return map[string]float64{
		"clients":          float64(clients),
		"shard_goroutines": float64(shards),
		"mds_shards":       float64(max(m.cfg.MDSShards, 1)),
		"ops_budget":       float64(m.cfg.scaleBudget()),
		"ops_per_client":   float64(opsPer),
		"ops":              float64(res.Ops),
		"creates":          float64(creates.Load()),
		"stats":            float64(stats.Load()),
		// Client ops per second of virtual time, to the end of the drain.
		"virtual_ops_per_sec": opsPerSec(res.Ops, window),
		// Host time for the whole point — what the simulated clients
		// cost the harness, not the model.
		"wall_seconds": time.Since(m.start).Seconds(),
		// Mean virtual wait for a free MDS worker slot per metadata op.
		"mds_queue_wait_ns_per_op": m.e.mdsQueueWaitPerOp(),
	}, window, nil
}

// runScalePoint measures one client count against a fresh deployment:
// 1-in-8 creates of client-unique names, the rest stats of the shared
// warm working set. The stages include the tracer's critpath_* segment
// attributions, so a scale regression points at the stage that moved;
// the trace_* metrics prove the tracer sampled at this scale.
func runScalePoint(cfg Config, clients int) (Point, error) {
	warm := make([]string, scaleWarmPaths)
	for i := range warm {
		warm[i] = fmt.Sprintf("/w/warm%d", i)
	}
	m, err := newMux(cfg, clients, []string{"/w"}, warm)
	if err != nil {
		return Point{}, err
	}
	defer m.close()
	metrics, _, err := m.run(func(int) muxOp {
		return func(c, k int) (string, bool) {
			if (c+k)%8 == 0 {
				return fmt.Sprintf("/w/s%d.%d", c, k), true
			}
			// A pseudo-random warm path (Weyl-style index so the
			// sequence is deterministic per client).
			return warm[(uint32(c)*2654435761+uint32(k)*40503)%uint32(len(warm))], false
		}
	})
	if err != nil {
		return Point{}, err
	}
	st := m.region.Stats()
	ts := m.o.TraceStats()
	metrics["nodes"] = float64(cfg.nodesFor(clients))
	metrics["warm_paths"] = scaleWarmPaths
	metrics["cache_rpcs"] = float64(st.CacheRPCs)
	metrics["backend_rpcs"] = float64(st.BackendRPCs)
	metrics["coalesced"] = float64(st.Coalesced)
	metrics["trace_sample_n"] = float64(ts.SampleN)
	metrics["trace_spans_sampled"] = float64(ts.Sampled)
	metrics["trace_spans_tail_kept"] = float64(ts.TailKept)
	metrics["trace_flight_dumps"] = float64(ts.FlightDumps)
	return measured(metrics, m.o), nil
}

// runScale sweeps the configured client counts.
func runScale(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "scale", Title: "Throughput vs simulated client count (multiplexed harness)",
		YLabel: "ops/s (virtual)",
		Series: []string{"virtual_ops_per_sec", "shard_goroutines", "wall_seconds"},
	}
	peak := 0.0
	for _, n := range cfg.scaleScales() {
		p, err := runScalePoint(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("scale point %d clients: %w", n, err)
		}
		p.Params = map[string]string{"clients": fmt.Sprint(n)}
		f.Points = append(f.Points, p)
		peak = max(peak, p.Metrics["virtual_ops_per_sec"])
	}
	if len(f.Points) > 0 {
		last := f.Points[len(f.Points)-1].Metrics
		f.Note("%.0f simulated clients multiplexed onto %.0f goroutines: %.0f virtual ops/s, %.1fs wall",
			last["clients"], last["shard_goroutines"], last["virtual_ops_per_sec"], last["wall_seconds"])
		f.Note("peak virtual throughput across scales: %.0f ops/s", peak)
	}
	return []*Figure{f}, nil
}
