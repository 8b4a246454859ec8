package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pacon/internal/audit"
	"pacon/internal/core"
	"pacon/internal/memcache"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// snapshot holds the counters a measurement takes deltas of.
type snapshot struct {
	region   core.RegionStats
	cache    memcache.Stats
	mdsOps   []int64
	mdsWait  []vclock.Duration
	mdsBusy  []vclock.Duration
	busBytes int64
	mem      runtime.MemStats
}

func (d *deployment) snapshot(withMem bool) snapshot {
	s := snapshot{
		region:   d.region.Stats(),
		cache:    d.region.CacheStats(),
		busBytes: d.bus.Bytes(),
	}
	for _, m := range d.cluster.MDSes {
		r := m.Resource()
		s.mdsOps = append(s.mdsOps, r.Ops())
		s.mdsWait = append(s.mdsWait, r.QueueWait())
		s.mdsBusy = append(s.mdsBusy, r.BusyTime())
	}
	if withMem {
		runtime.ReadMemStats(&s.mem)
	}
	return s
}

// measurement is one measured round: the clients' closed loops, then
// Region.Drain, then the correctness checks.
type measurement struct {
	okOps     float64
	attempted int64
	errs      int64
	misses    int64
	problems  []string

	wall, cpu, virt time.Duration
	lat             latencies

	before, after          snapshot
	drainWall, drainVirt   time.Duration
	depths                 []int
	cacheItems, cacheBytes int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the measured phase on d: the clients' closed loops until
// they have issued the workload's round of calls between them, then the
// drain and the checks. A traced run (t non-nil) also
// samples the commit queues' depth on a wall ticker and the Go runtime's
// allocation counters.
func measure(d *deployment, sp spec, wd *watchdog, t *tracer) (*measurement, error) {
	m := &measurement{}
	wd.arm("measure", 120*time.Second)
	vstart := vclock.Max(d.runner.Now(), d.ready)
	sampleDepth := t != nil
	m.before = d.snapshot(sampleDepth)

	var (
		stopDepth = make(chan struct{})
		depthDone sync.WaitGroup
	)
	if sampleDepth {
		depthDone.Add(1)
		go func() {
			defer depthDone.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopDepth:
					return
				case <-tick.C:
					m.depths = append(m.depths, d.region.QueueDepth())
				}
			}
		}()
	}

	// issued counts the calls of both clients. Each client adds its
	// calls in batches, so the counter's cache line is not contended on
	// every call, and stops at a unit end once the round is issued.
	const batch = 64
	var issued atomic.Int64
	cpu0 := cpuTime()
	t0 := time.Now()
	_, err := d.runner.RunPhaseWindow(sp.window, func(idx int, _ workload.Client, start vclock.Time) (vclock.Time, int64, error) {
		c := d.clients[idx]
		c.now = vclock.Max(start, vstart)
		n := 0
		for !(c.s.atUnitEnd() && issued.Load() >= sp.roundCalls) {
			c.do(c.s.next())
			if n++; n == batch {
				issued.Add(batch)
				n = 0
			}
		}
		return c.now, c.ok, nil
	})
	if err != nil {
		close(stopDepth)
		depthDone.Wait()
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	vloop := d.runner.Now()
	drain0 := time.Now()
	vdone, err := d.region.Drain(vloop)
	t1 := time.Now()
	cpu1 := cpuTime()
	if t != nil {
		t.stopped.Store(true)
	}
	close(stopDepth)
	depthDone.Wait()
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	m.after = d.snapshot(sampleDepth)
	m.wall, m.cpu, m.virt = t1.Sub(t0), cpu1-cpu0, vdone.Sub(vstart)
	m.drainWall, m.drainVirt = t1.Sub(drain0), vdone.Sub(vloop)
	cs := d.region.CacheStats()
	m.cacheItems, m.cacheBytes = cs.Items, cs.UsedBytes

	wd.arm("checks", 90*time.Second)
	if err := d.verify(vdone); err != nil {
		return nil, err
	}
	var samples []sample
	for _, c := range d.clients {
		m.attempted += c.attempted
		m.errs += c.errs
		m.misses += c.misses
		m.okOps += float64(c.ok)
		m.problems = append(m.problems, c.firstProblems...)
		samples = append(samples, c.lat...)
	}
	m.lat = summarize(samples)
	return m, nil
}

// verify runs the checks that need a drained region: what every call
// acknowledged must be on the DFS, and the auditor must find no
// divergence between the cache and the DFS. Misses are charged to the
// clients (audit findings to the first).
func (d *deployment) verify(at vclock.Time) error {
	for _, c := range d.clients {
		c.misses += c.verifyDurable(d.cluster)
	}
	rep, _, err := audit.Run(d.clients[0].cl, at, audit.Config{})
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if rep.Divergent > 0 {
		c := d.clients[0]
		c.misses += int64(rep.Divergent)
		c.problem("%s", rep.String())
	}
	return nil
}

// report starts a report with the measurement's counts.
func (m *measurement) report(name string) report {
	return report{workload: name, attempted: m.attempted, failed: m.errs + m.misses, problems: m.problems}
}

// watchdog bounds a run's phases in wall time. A phase that overruns
// its limit is taken for a hang: the watchdog writes every goroutine's
// stack to its dump file and exits the process with status 3 instead of
// letting the run wedge. Limits never reach past hardLimit after start.
type watchdog struct {
	dump   string
	stderr interface{ Write([]byte) (int, error) }
	start  time.Time

	mu    sync.Mutex
	timer *time.Timer
}

const hardLimit = 170 * time.Second

func newWatchdog(dump string, stderr interface{ Write([]byte) (int, error) }) *watchdog {
	return &watchdog{dump: dump, stderr: stderr, start: time.Now()}
}

// arm starts the limit of a new phase, replacing the previous one.
func (w *watchdog) arm(phase string, limit time.Duration) {
	if rest := hardLimit - time.Since(w.start); limit > rest {
		limit = rest
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timer != nil {
		w.timer.Stop()
	}
	w.timer = time.AfterFunc(limit, func() { w.fire(phase, limit) })
}

func (w *watchdog) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timer != nil {
		w.timer.Stop()
	}
}

func (w *watchdog) fire(phase string, limit time.Duration) {
	fmt.Fprintf(w.stderr, "perfbench: %s phase exceeded %v; goroutine dump in %s\n", phase, limit, w.dump)
	if f, err := os.Create(w.dump); err == nil {
		fmt.Fprintf(f, "%s phase exceeded %v\n\n", phase, limit)
		_ = pprof.Lookup("goroutine").WriteTo(f, 2) // best effort: the process exits next
		f.Close()
	}
	os.Exit(3)
}

// quantileInts returns the q-quantile of xs (sorted in place).
func quantileInts(xs []int, q float64) float64 {
	f := make([]float64, len(xs))
	sort.Ints(xs)
	for i, x := range xs {
		f[i] = float64(x)
	}
	return quantileSorted(f, q)
}
