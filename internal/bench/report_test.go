package bench

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pacon/internal/chaos"
)

// report is the decoded JSON report.
type report struct {
	Experiment string   `json:"experiment"`
	Config     Config   `json:"config"`
	Points     []Point  `json:"points"`
	Notes      []string `json:"notes"`
}

// renderReport renders an experiment's figures through JSON and decodes
// the result.
func renderReport(t *testing.T, id string, cfg Config, figs []*Figure) report {
	t.Helper()
	data, err := JSON(id, cfg, figs)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode %s report: %v", id, err)
	}
	return rep
}

// pointsWhere returns the points whose params include key=val.
func pointsWhere(pts []Point, key, val string) []Point {
	var out []Point
	for _, p := range pts {
		if p.Params[key] == val {
			out = append(out, p)
		}
	}
	return out
}

// TestReportSchema runs each BENCH experiment at tiny scale, renders it
// through the one JSON renderer and decodes it: the config round-trips,
// every point carries params and metrics, and every instrumented point
// carries stages. The per-experiment checks include the scale harness's
// multiplexing bookkeeping (ops split across simulated clients,
// create/stat mix, shard cap) and the shard sweep's 1-shard baseline.
func TestReportSchema(t *testing.T) {
	cfg := tiny()
	cfg.ScaleClients = []int{16, 500}
	cfg.ScaleOpsBudget = 2000
	cfg.ShardSweep = []int{1, 2}

	positive := func(t *testing.T, p Point, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if p.Metrics[k] <= 0 {
				t.Fatalf("%v: %s = %v, want > 0", p.Params, k, p.Metrics[k])
			}
		}
	}
	checks := map[string]func(t *testing.T, figs []*Figure, pts []Point){
		"commit": func(t *testing.T, _ []*Figure, pts []Point) {
			if len(pts) != 1 {
				t.Fatalf("points = %d", len(pts))
			}
			positive(t, pts[0], "cache_rpcs_per_create", "ops_committed", "virtual_ops_per_sec", "peak_commit_lag_ns")
			if _, ok := pts[0].Stages["commit_lag"]; !ok {
				t.Fatalf("no commit_lag stage: %v", pts[0].Stages)
			}
		},
		"read": func(t *testing.T, _ []*Figure, pts []Point) {
			if len(pts) != 1 {
				t.Fatalf("points = %d", len(pts))
			}
			positive(t, pts[0], "read_ops", "cache_rpcs_per_op", "virtual_ops_per_sec")
		},
		"scale": func(t *testing.T, figs []*Figure, pts []Point) {
			if len(pts) != 2 || len(figs) != 1 {
				t.Fatalf("points=%d figs=%d", len(pts), len(figs))
			}
			peak := 0.0
			for _, p := range pts {
				m := p.Metrics
				if m["shard_goroutines"] > maxShardGoroutines || m["shard_goroutines"] > m["clients"] {
					t.Fatalf("%v clients on %v shards", m["clients"], m["shard_goroutines"])
				}
				if want := m["clients"] * m["ops_per_client"]; m["ops"] != want {
					t.Fatalf("%v clients: ops=%v, want %v", m["clients"], m["ops"], want)
				}
				if m["creates"]+m["stats"] != m["ops"] {
					t.Fatalf("mix %v+%v != %v", m["creates"], m["stats"], m["ops"])
				}
				positive(t, p, "creates", "stats", "virtual_ops_per_sec", "trace_sample_n")
				peak = max(peak, m["virtual_ops_per_sec"])
			}
			// 500 clients over a 2000-op budget: 4 ops each; 16 clients get 125.
			if got := pointsWhere(pts, "clients", "16")[0].Metrics["ops_per_client"]; got != 125 {
				t.Fatalf("16-client ops/client = %v, want 125", got)
			}
			if got := pointsWhere(pts, "clients", "500")[0].Metrics["ops_per_client"]; got != 4 {
				t.Fatalf("500-client ops/client = %v, want 4", got)
			}
			if peak <= 0 || !strings.Contains(strings.Join(figs[0].Notes, "\n"), "peak virtual throughput") {
				t.Fatalf("no peak throughput: %v", figs[0].Notes)
			}
		},
		"shards": func(t *testing.T, figs []*Figure, pts []Point) {
			if len(pts) != 3*len(cfg.ShardSweep) || len(figs) != 1 {
				t.Fatalf("points=%d figs=%d", len(pts), len(figs))
			}
			for _, w := range []string{"commit", "read", "scale"} {
				sweep := pointsWhere(pts, "workload", w)
				if len(sweep) != 2 {
					t.Fatalf("%s: %d points", w, len(sweep))
				}
				for _, p := range sweep {
					positive(t, p, "virtual_ops_per_sec")
				}
				if s := sweep[0].Metrics["speedup_vs_1shard"]; s != 1.0 {
					t.Fatalf("%s: 1-shard speedup = %v, want 1.0", w, s)
				}
				if sweep[1].Params["mds_shards"] != "2" {
					t.Fatalf("%s: second point params = %v", w, sweep[1].Params)
				}
			}
			// The scale workload runs at the hotspot fan-in.
			if c := pointsWhere(pts, "workload", "scale")[0].Metrics["clients"]; c != 500 {
				t.Fatalf("scale sweep at %v clients, want 500", c)
			}
		},
		"hotspot": func(t *testing.T, _ []*Figure, pts []Point) {
			if len(pts) != len(hotspotZipfS)*len(hotspotShards) {
				t.Fatalf("points = %d", len(pts))
			}
			for _, p := range pts {
				positive(t, p, "virtual_ops_per_sec", "client_op_p99_ns", "shard0_ops")
				// A single shard has no spread: the zero is written, not
				// omitted.
				if cv, ok := p.Metrics["shard_ops_cv_permille"]; !ok || (p.Params["mds_shards"] == "1" && cv != 0) {
					t.Fatalf("%v: shard_ops_cv_permille = %v (present %v)", p.Params, cv, ok)
				}
			}
		},
		"audit": func(t *testing.T, _ []*Figure, pts []Point) {
			if len(pts) != len(auditSchedules(cfg)) {
				t.Fatalf("points = %d", len(pts))
			}
			for _, p := range pts {
				positive(t, p, "sampled", "client_ops")
				if p.Metrics["violations"] != 0 || p.Metrics["divergent"] != 0 {
					t.Fatalf("seed %s: %v", p.Params["seed"], p.Metrics)
				}
			}
		},
	}
	for _, id := range []string{"commit", "read", "scale", "shards", "hotspot", "audit"} {
		t.Run(id, func(t *testing.T) {
			figs, err := Run(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := renderReport(t, id, cfg, figs)
			if rep.Experiment != id {
				t.Fatalf("experiment = %q", rep.Experiment)
			}
			if !reflect.DeepEqual(rep.Config, cfg) {
				t.Fatalf("config does not round-trip:\n got %+v\nwant %+v", rep.Config, cfg)
			}
			for _, p := range rep.Points {
				if len(p.Params) == 0 || len(p.Metrics) == 0 {
					t.Fatalf("point without params or metrics: %+v", p)
				}
				if id != "audit" && len(p.Stages) == 0 {
					t.Fatalf("instrumented point %v has no stages", p.Params)
				}
			}
			checks[id](t, figs, rep.Points)
		})
	}
}

// A schedule that violates must not lose the audit's evidence: the
// failing seed is recorded with its violations and the figure comes back
// with the gate's error.
func TestAuditReportKeepsFailingSeed(t *testing.T) {
	cfg := tiny()
	schedules := append(auditSchedules(cfg), chaos.Config{Seed: 99, FaultRate: -1, StallEveryN: 1 << 30, LoseOneCommit: true})
	figs, err := runAudit(schedules)
	if err == nil {
		t.Fatal("audit gate passed a LoseOneCommit schedule")
	}
	rep := renderReport(t, "audit", cfg, figs)
	if len(rep.Points) != len(schedules) {
		t.Fatalf("points = %d, want %d", len(rep.Points), len(schedules))
	}
	failed := pointsWhere(rep.Points, "seed", "99")
	if len(failed) != 1 || failed[0].Metrics["violations"] < 1 || failed[0].Metrics["client_ops"] <= 0 {
		t.Fatalf("failing seed not recorded: %+v", failed)
	}
	if !strings.Contains(err.Error(), "seed 99") {
		t.Fatalf("error does not name the seed: %v", err)
	}
}

// An experiment with several figures (fig7's mkdir/create/stat) keeps
// its points distinct in the report: each gains a "figure" param, while
// the figures' own one-key params stay as the tables show them.
func TestJSONNamesFigureOfEachPoint(t *testing.T) {
	x := map[string]string{"nodes": "2"}
	a := &Figure{ID: "figA", Series: []string{"S"}}
	b := &Figure{ID: "figB", Series: []string{"S"}}
	a.AddPoint(x, map[string]float64{"S": 1})
	b.AddPoint(x, map[string]float64{"S": 2})
	rep := renderReport(t, "fig", tiny(), []*Figure{a, b})
	if len(rep.Points) != 2 || rep.Points[0].Params["figure"] != "figA" || rep.Points[1].Params["figure"] != "figB" ||
		rep.Points[1].Params["nodes"] != "2" || rep.Points[1].Metrics["S"] != 2 {
		t.Fatalf("points = %+v", rep.Points)
	}
	if len(x) != 1 {
		t.Fatalf("rendering mutated a figure's params: %v", x)
	}
}
