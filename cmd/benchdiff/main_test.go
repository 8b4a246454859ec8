package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type testPoint struct {
	Params  map[string]string  `json:"params"`
	Metrics map[string]float64 `json:"metrics"`
}

// writeReport writes a report in paconbench's schema and returns its path.
func writeReport(t *testing.T, name string, config map[string]any, pts ...testPoint) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"experiment": "exp", "config": config, "points": pts, "notes": []string{}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func pt(shards string, metrics map[string]float64) testPoint {
	return testPoint{Params: map[string]string{"workload": "w", "mds_shards": shards}, Metrics: metrics}
}

func keys(ds []delta) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.key)
	}
	return out
}

func TestDiff(t *testing.T) {
	const k1, k2 = "exp{mds_shards=1,workload=w}", "exp{mds_shards=2,workload=w}"
	cases := []struct {
		name     string
		old, new []testPoint
		want     result // deltas compared by key only
	}{
		{
			name: "points match by params, not position",
			old:  []testPoint{pt("1", map[string]float64{"virtual_ops_per_sec": 100}), pt("2", map[string]float64{"virtual_ops_per_sec": 200})},
			new:  []testPoint{pt("2", map[string]float64{"virtual_ops_per_sec": 200}), pt("1", map[string]float64{"virtual_ops_per_sec": 100})},
		},
		{
			name: "direction buckets",
			old: []testPoint{pt("1", map[string]float64{
				"virtual_ops_per_sec": 100, "speedup_vs_1shard": 2, "client_op_p99_ns": 100, "wall_seconds": 10, "cache_rpcs": 100,
			})},
			new: []testPoint{pt("1", map[string]float64{
				"virtual_ops_per_sec": 50, "speedup_vs_1shard": 3, "client_op_p99_ns": 200, "wall_seconds": 5, "cache_rpcs": 300,
			})},
			want: result{
				regressions:  []delta{{key: k1 + " client_op_p99_ns"}, {key: k1 + " virtual_ops_per_sec"}},
				improvements: []delta{{key: k1 + " speedup_vs_1shard"}, {key: k1 + " wall_seconds"}},
				changed:      []delta{{key: k1 + " cache_rpcs"}},
			},
		},
		{
			name: "threshold edge: a 10% move counts, 9.9% does not",
			old:  []testPoint{pt("1", map[string]float64{"virtual_ops_per_sec": 100, "mds_queue_wait_ns_per_op": 100})},
			new:  []testPoint{pt("1", map[string]float64{"virtual_ops_per_sec": 90, "mds_queue_wait_ns_per_op": 109.9})},
			want: result{regressions: []delta{{key: k1 + " virtual_ops_per_sec"}}},
		},
		{
			name: "a fall to zero is compared; a rise from zero is neutral",
			old:  []testPoint{pt("1", map[string]float64{"virtual_ops_per_sec": 100, "mds_queue_wait_ns_per_op": 0})},
			new:  []testPoint{pt("1", map[string]float64{"virtual_ops_per_sec": 0, "mds_queue_wait_ns_per_op": 5})},
			want: result{
				regressions: []delta{{key: k1 + " virtual_ops_per_sec"}},
				changed:     []delta{{key: k1 + " mds_queue_wait_ns_per_op"}},
			},
		},
		{
			name: "one-sided points and metrics",
			old:  []testPoint{pt("1", map[string]float64{"virtual_ops_per_sec": 100, "gone": 1})},
			new:  []testPoint{pt("1", map[string]float64{"virtual_ops_per_sec": 100, "fresh": 1}), pt("2", map[string]float64{"virtual_ops_per_sec": 1})},
			want: result{missing: []string{k1 + " gone"}, added: []string{k1 + " fresh", k2}},
		},
		{
			name: "missing point",
			old:  []testPoint{pt("1", map[string]float64{"virtual_ops_per_sec": 100}), pt("2", map[string]float64{"virtual_ops_per_sec": 1})},
			new:  []testPoint{pt("1", map[string]float64{"virtual_ops_per_sec": 100})},
			want: result{missing: []string{k2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldRep, err := load(writeReport(t, "old.json", nil, tc.old...))
			if err != nil {
				t.Fatal(err)
			}
			newRep, err := load(writeReport(t, "new.json", nil, tc.new...))
			if err != nil {
				t.Fatal(err)
			}
			got := diff(oldRep, newRep, 0.10)
			for _, c := range []struct {
				bucket    string
				got, want []string
			}{
				{"regressions", keys(got.regressions), keys(tc.want.regressions)},
				{"improvements", keys(got.improvements), keys(tc.want.improvements)},
				{"changed", keys(got.changed), keys(tc.want.changed)},
				{"missing", got.missing, tc.want.missing},
				{"added", got.added, tc.want.added},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s = %q, want %q", c.bucket, c.got, c.want)
				}
			}
		})
	}
}

func TestRunExitCodes(t *testing.T) {
	cfg := map[string]any{"MaxNodes": 16, "ShardSweep": []int{1, 2, 4, 8}, "Model": map[string]any{"MDSWorkers": 4}}
	base := writeReport(t, "base.json", cfg, pt("1", map[string]float64{"virtual_ops_per_sec": 100}))
	slower := writeReport(t, "slower.json", cfg, pt("1", map[string]float64{"virtual_ops_per_sec": 50}))
	other := writeReport(t, "other.json",
		map[string]any{"MaxNodes": 8, "ShardSweep": []int{1, 2, 4}, "Model": map[string]any{"MDSWorkers": 4}},
		pt("1", map[string]float64{"virtual_ops_per_sec": 100}))

	cases := []struct {
		name       string
		args       []string
		code       int
		wantStderr string
	}{
		{"regression reported", []string{base, slower}, 0, ""},
		{"regression fails the gate", []string{"-fail", base, slower}, 1, ""},
		{"no regression passes the gate", []string{"-fail", base, base}, 0, ""},
		{"config mismatch is not comparable", []string{base, other}, 2, "MaxNodes, ShardSweep"},
		{"missing operand", []string{base}, 2, "usage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("stderr %q lacks %q", &stderr, tc.wantStderr)
			}
		})
	}
}
