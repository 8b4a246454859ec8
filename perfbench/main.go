// Command perfbench is the repository benchmark. It deploys a Pacon
// region over the sharded DFS in-process, drives one workload with two
// closed-loop clients, drains the region, checks every output against
// what the region acknowledged, and prints the metrics, ending with one
// JSON line.
//
//	perfbench --workload stat_zipf --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures rounds of a fixed amount of work, each in a
// process of its own, until --seconds of measured time have passed, and
// reports the end-to-end metrics as medians over the rounds. --trace 1
// measures one round untraced and one traced and reports the per-layer
// metrics of the traced one, writing its spans under --out. See
// README.md for the workloads, the metrics and the two clocks.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// An end-to-end run measures at least minRounds rounds and goes on
// until --seconds of measured time have passed, up to maxRounds.
const (
	minRounds = 3
	maxRounds = 40
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "wall seconds to measure")
	trace := fs.Int("trace", 0, "1 = traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and hang dumps")
	round := fs.Bool("round", false, "internal: run one end-to-end round and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	wd := newWatchdog(filepath.Join(*out, fmt.Sprintf("hang-%s-%d.txt", sp.name, *seed)), stderr)
	defer wd.stop()

	var (
		res report
		err error
	)
	window := time.Duration(*seconds) * time.Second
	switch {
	case *round:
		r, err := oneRound(sp, *seed, wd)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s round: %v\n", sp.name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			return 1
		}
		return 0
	case *trace == 0:
		res, err = endToEnd(sp, *seed, window, *out, stderr)
	default:
		res, err = traced(sp, *seed, wd, filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", sp.name, *seed)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	res.print(stdout)
	return 0
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, "|")
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// report is a run's outcome.
type report struct {
	workload  string
	attempted int64
	failed    int64
	metrics   []metric
	problems  []string
	notes     []string
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

// maxPrinted caps the problems a report prints.
const maxPrinted = 12

func (r report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d calls attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for i, p := range r.problems {
		if i == maxPrinted {
			fmt.Fprintf(w, "  ... %d more problems\n", len(r.problems)-i)
			break
		}
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jv, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = jv{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(line))
}

// setup builds and populates a deployment, returning it with the wall
// time both took.
func setup(sp spec, seed int64, t *tracer, wd *watchdog) (*deployment, time.Duration, error) {
	wd.arm("set-up", 60*time.Second)
	start := time.Now()
	d, err := deploy(sp, seed, t)
	if err != nil {
		return nil, 0, err
	}
	if err := d.populate(sp); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// roundResult is one end-to-end round, as a round process reports it.
type roundResult struct {
	SetupS    float64  `json:"setup_s"`
	OK        float64  `json:"ok"`
	Attempted int64    `json:"attempted"`
	Errs      int64    `json:"errs"`
	Misses    int64    `json:"misses"`
	Problems  []string `json:"problems,omitempty"`
	WallS     float64  `json:"wall_s"`
	CPUS      float64  `json:"cpu_s"`
	VirtS     float64  `json:"virt_s"`
	DrainMS   float64  `json:"drain_ms"`
	Samples   int      `json:"samples"`
	WallP50   float64  `json:"wall_p50_us"`
	WallP99   float64  `json:"wall_p99_us"`
	VirtP50   float64  `json:"virt_p50_us"`
	VirtP99   float64  `json:"virt_p99_us"`
	VirtTail  float64  `json:"virt_tail_us"`
}

// setupsPerRound is how many times a round builds and populates its
// deployment; the round's set-up time is the median, and the last
// deployment is the one measured.
const setupsPerRound = 3

// oneRound sets up a deployment and measures one round on it.
func oneRound(sp spec, seed int64, wd *watchdog) (roundResult, error) {
	var (
		d      *deployment
		setups []float64
	)
	for i := 0; i < setupsPerRound; i++ {
		if d != nil {
			d.close()
			runtime.GC()
		}
		var took time.Duration
		var err error
		if d, took, err = setup(sp, seed, nil, wd); err != nil {
			return roundResult{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.close()
	m, err := measure(d, sp, wd, nil)
	if err != nil {
		return roundResult{}, err
	}
	return roundResult{
		SetupS: median(setups), OK: m.okOps, Attempted: m.attempted, Errs: m.errs, Misses: m.misses, Problems: m.problems,
		WallS: m.wall.Seconds(), CPUS: m.cpu.Seconds(), VirtS: m.virt.Seconds(), DrainMS: float64(m.drainWall.Microseconds()) / 1e3,
		Samples: m.lat.n, WallP50: m.lat.wallP50, WallP99: m.lat.wallP99, VirtP50: m.lat.virtP50, VirtP99: m.lat.virtP99, VirtTail: m.lat.virtTail,
	}, nil
}

// endToEnd is the untraced run. Each round is a process of its own (this
// binary with --round): a fresh deployment, set up and then measured on
// the workload's fixed amount of work, whose peak RSS is its own. Rounds
// go on until their measured time reaches window. Every metric is the
// median over the rounds, which also evens out what differs from one
// process to the next.
func endToEnd(sp spec, seed int64, window time.Duration, out string, stderr io.Writer) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	rep := report{workload: sp.name}
	var setups, opsPerS, cpuPerOp, p50, p99, vOpsPerS, vTail, rss []float64
	var errs, misses int64
	var samples int
	var measured float64
	for i := 0; i < maxRounds && (i < minRounds || measured < window.Seconds()); i++ {
		var stdout bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, "--round", "--workload", sp.name, "--seed", fmt.Sprint(seed), "--out", out)
		cmd.Stdout, cmd.Stderr = &stdout, stderr
		if err := cmd.Run(); err != nil {
			return report{}, fmt.Errorf("round %d: %w", i, err)
		}
		var r roundResult
		if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
			return report{}, fmt.Errorf("round %d: %w", i, err)
		}
		measured += r.WallS
		rep.attempted += r.Attempted
		rep.failed += r.Errs + r.Misses
		rep.problems = append(rep.problems, r.Problems...)
		errs, misses = errs+r.Errs, misses+r.Misses
		samples += r.Samples
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = append(rss, float64(ru.Maxrss)/1024) // KiB on Linux
		}
		setups = append(setups, r.SetupS)
		opsPerS = append(opsPerS, r.OK/r.WallS)
		cpuPerOp = append(cpuPerOp, ratio(r.CPUS*1e6, r.OK))
		p50 = append(p50, r.WallP50)
		p99 = append(p99, r.WallP99)
		vOpsPerS = append(vOpsPerS, ratio(r.OK, r.VirtS))
		vTail = append(vTail, r.VirtTail)
		rep.notes = append(rep.notes, fmt.Sprintf("round %d: %.0f ok calls in %.3f s wall (drain %.1f ms), %.3f s virtual; virtual p50 %.2f us p99 %.2f us",
			i, r.OK, r.WallS, r.DrainMS, r.VirtS, r.VirtP50, r.VirtP99))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("failed_ops_ratio %.6f (%d call errors + %d check misses of %d calls)",
		ratio(float64(rep.failed), float64(rep.attempted)), errs, misses, rep.attempted))
	perRound := fmt.Sprintf("median of %d rounds", len(setups))
	rep.add("setup_s", "s", median(setups), perRound)
	rep.add("ops_per_s", "ops/s", median(opsPerS), perRound+", window includes the drain")
	rep.add("cpu_us_per_op", "us", median(cpuPerOp), perRound)
	rep.add("op_p50_us", "us", median(p50), fmt.Sprintf("%s, %d samples", perRound, samples))
	rep.add("op_p99_us", "us", median(p99), fmt.Sprintf("%s, %d samples", perRound, samples))
	rep.add("virtual_ops_per_s", "ops/s", median(vOpsPerS), perRound)
	rep.add("virtual_op_tail_us", "us", median(vTail), perRound+", mean of the slowest 1%")
	rep.add("max_rss_mb", "MB", median(rss), perRound+", each a process's peak")
	return rep, nil
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantileSorted(xs, 0.5)
}

// traced runs one round untraced and then one traced, and reports the
// per-layer metrics of the traced one.
func traced(sp spec, seed int64, wd *watchdog, spanFile string) (report, error) {
	d, _, err := setup(sp, seed, nil, wd)
	if err != nil {
		return report{}, err
	}
	plain, err := measure(d, sp, wd, nil)
	d.close()
	if err != nil {
		return report{}, err
	}
	runtime.GC()
	debug.FreeOSMemory()

	t := newTracer()
	d, _, err = setup(sp, seed, t, wd)
	if err != nil {
		return report{}, err
	}
	defer d.close()
	m, err := measure(d, sp, wd, t)
	if err != nil {
		return report{}, err
	}
	rep := m.report(sp.name)
	rep.attempted += plain.attempted
	rep.failed += plain.errs + plain.misses
	rep.problems = append(plain.problems, rep.problems...)
	layerMetrics(&rep, m, t)
	rep.add("virtual_op_p99_us", "us", m.lat.virtP99, fmt.Sprintf("n=%d, failures ranked slowest", m.lat.n))
	rep.add("failed_ops_ratio", "ratio", ratio(float64(rep.failed), float64(rep.attempted)), "call errors + check misses, both halves")
	rep.add("trace.overhead_ratio", "ratio", ratio(m.cpu.Seconds()/m.okOps, plain.cpu.Seconds()/plain.okOps), "traced / untraced cpu per op")
	if err := t.writeSpans(spanFile); err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d kept in %s, %d over the cap", len(t.kept), spanFile, t.dropped))
	return rep, nil
}
