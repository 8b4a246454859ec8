// Command benchdiff compares two paconbench JSON reports and flags
// regressions, seeding the bench trajectory: CI (or a developer) diffs
// the committed baseline against a fresh run and sees which metrics
// moved more than the threshold in the adverse direction.
//
// Usage:
//
//	benchdiff OLD.json NEW.json              # report, exit 0
//	benchdiff -fail OLD.json NEW.json        # exit 1 on regressions
//	benchdiff -threshold 0.05 OLD NEW        # tighter gate (default 0.10)
//
// Both files use paconbench's one report schema ({experiment, config,
// points: [{params, metrics, stages}], notes}). Points are matched by
// (experiment, params), so reordered points still pair up, and every
// metric of a matched pair is compared. Direction is inferred from the
// metric name — throughput-like metrics (ops_per_sec, speedup, recall,
// hits...) regress when they fall, cost-like metrics (latency, _ns,
// wait, errors, misses...) when they rise; unrecognized metrics are
// reported as changed but never counted as regressions. Points and
// metrics present in only one file are listed as missing (old only) or
// new (new only). Reports whose configs differ do not measure the same
// thing: benchdiff names the differing config keys and exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "relative change counted as a regression")
	failFlag := fs.Bool("fail", false, "exit 1 when regressions are found")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold 0.10] [-fail] OLD.json NEW.json")
		return 2
	}
	oldRep, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	newRep, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if keys := configDiff(oldRep.Config, newRep.Config); len(keys) > 0 {
		fmt.Fprintf(stderr, "benchdiff: configs differ, not comparable: %s\n", strings.Join(keys, ", "))
		return 2
	}

	d := diff(oldRep, newRep, *threshold)
	fmt.Fprintf(stdout, "benchdiff: %s -> %s (threshold %.0f%%)\n", fs.Arg(0), fs.Arg(1), 100**threshold)
	if len(d.regressions)+len(d.improvements)+len(d.changed)+len(d.missing)+len(d.added) == 0 {
		fmt.Fprintln(stdout, "  no metric moved past the threshold")
	}
	for _, b := range []struct {
		label string
		ds    []delta
	}{
		{"REGRESSION", d.regressions}, {"improved", d.improvements}, {"changed", d.changed},
	} {
		for _, x := range b.ds {
			fmt.Fprintf(stdout, "  %-10s %-70s %14.4g -> %-14.4g (%+.1f%%)\n", b.label, x.key, x.old, x.new, 100*x.rel)
		}
	}
	for _, k := range d.missing {
		fmt.Fprintf(stdout, "  %-10s %s\n", "missing", k)
	}
	for _, k := range d.added {
		fmt.Fprintf(stdout, "  %-10s %s\n", "new", k)
	}
	fmt.Fprintf(stdout, "  %d regression(s), %d improvement(s), %d neutral change(s), %d missing, %d new\n",
		len(d.regressions), len(d.improvements), len(d.changed), len(d.missing), len(d.added))
	if *failFlag && len(d.regressions) > 0 {
		return 1
	}
	return 0
}

// report is the part of the schema benchdiff compares.
type report struct {
	Experiment string         `json:"experiment"`
	Config     map[string]any `json:"config"`
	Points     []struct {
		Params  map[string]string  `json:"params"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"points"`
}

func load(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// configDiff returns the dotted config keys whose values differ, sorted.
func configDiff(a, b map[string]any) []string {
	fa, fb := map[string]any{}, map[string]any{}
	flatten("", a, fa)
	flatten("", b, fb)
	var keys []string
	for k, v := range fa {
		if w, ok := fb[k]; !ok || !reflect.DeepEqual(v, w) {
			keys = append(keys, k)
		}
	}
	for k := range fb {
		if _, ok := fa[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// flatten maps a decoded JSON value to its leaves, keyed by dotted path.
func flatten(prefix string, v any, out map[string]any) {
	m, ok := v.(map[string]any)
	if !ok {
		out[prefix] = v
		return
	}
	for k, child := range m {
		if prefix != "" {
			k = prefix + "." + k
		}
		flatten(k, child, out)
	}
}

// pointKey identifies a point across files: its experiment and params,
// in sorted key order.
func pointKey(experiment string, params map[string]string) string {
	var parts []string
	for _, k := range sortedKeys(params) {
		parts = append(parts, k+"="+params[k])
	}
	return experiment + "{" + strings.Join(parts, ",") + "}"
}

type delta struct {
	key      string
	old, new float64
	rel      float64
}

type result struct {
	regressions, improvements, changed []delta
	// missing and added name points or metrics found only in the old or
	// only in the new file.
	missing, added []string
}

// diff buckets every metric of every matched point whose relative
// change reaches the threshold: adverse moves on direction-known
// metrics are regressions, favorable ones improvements,
// direction-unknown ones neutral. A metric whose old value is 0 has no
// ratio and is reported as neutral whenever it moves.
func diff(oldRep, newRep report, threshold float64) result {
	index := func(r report) map[string]map[string]float64 {
		out := make(map[string]map[string]float64, len(r.Points))
		for _, p := range r.Points {
			out[pointKey(r.Experiment, p.Params)] = p.Metrics
		}
		return out
	}
	oldPts, newPts := index(oldRep), index(newRep)
	var res result
	for _, pk := range sortedKeys(oldPts) {
		om := oldPts[pk]
		nm, ok := newPts[pk]
		if !ok {
			res.missing = append(res.missing, pk)
			continue
		}
		for _, name := range sortedKeys(om) {
			key := pk + " " + name
			ov := om[name]
			nv, ok := nm[name]
			switch {
			case !ok:
				res.missing = append(res.missing, key)
			case ov == nv:
			case ov == 0:
				res.changed = append(res.changed, delta{key, ov, nv, 0})
			default:
				d := delta{key, ov, nv, (nv - ov) / ov}
				if math.Abs(d.rel) < threshold {
					continue
				}
				switch dir := direction(name); {
				case dir == 0:
					res.changed = append(res.changed, d)
				case (dir > 0) == (d.rel < 0):
					res.regressions = append(res.regressions, d)
				default:
					res.improvements = append(res.improvements, d)
				}
			}
		}
		for _, name := range sortedKeys(nm) {
			if _, ok := om[name]; !ok {
				res.added = append(res.added, pk+" "+name)
			}
		}
	}
	for _, pk := range sortedKeys(newPts) {
		if _, ok := oldPts[pk]; !ok {
			res.added = append(res.added, pk)
		}
	}
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// direction classifies a metric name: +1 higher-is-better, -1
// lower-is-better, 0 unknown. Cost-like markers are checked first so
// "queue_wait_..._per_op" is not misread via some other substring.
func direction(key string) int {
	k := strings.ToLower(key)
	lower := []string{
		"_ns", "latency", "wait", "lag", "stale", "wall_seconds",
		"errors", "dropped", "misses", "evictions", "fallbacks",
		"p50", "p95", "p99", "divergent", "retries", "discarded",
		"max_mean", "cv_permille", "violations",
	}
	for _, m := range lower {
		if strings.Contains(k, m) {
			return -1
		}
	}
	higher := []string{
		"ops_per_sec", "speedup", "recall", "throughput", "hits",
		"coalesced", "share",
	}
	for _, m := range higher {
		if strings.Contains(k, m) {
			return +1
		}
	}
	return 0
}
