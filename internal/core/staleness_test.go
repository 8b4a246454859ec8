package core

import (
	"errors"
	"expvar"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// gatedBackend blocks the commit path's metadata mutations until gate
// is closed, pinning ops in the commit pipeline so lag/staleness state
// can be asserted deterministically mid-flight. Each blocked call
// signals held (buffered, one slot; extra signals are dropped).
type gatedBackend struct {
	Backend
	gate <-chan struct{}
	held chan<- struct{}
}

func (g *gatedBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	select {
	case g.held <- struct{}{}:
	default:
	}
	<-g.gate
	return g.Backend.ApplyBatch(at, ops)
}

// waitHeld waits up to five seconds for a gated backend to hold a call.
func waitHeld(t *testing.T, held <-chan struct{}) {
	t.Helper()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the gated backend to hold a commit")
	}
}

// TestLagReleasedAfterDrain: every committed op must release its lag
// entry — a drained region reports zero staleness and a non-zero peak
// commit lag, and the new watermark gauges appear in the exposition.
func TestLagReleasedAfterDrain(t *testing.T) {
	o := obs.New()
	e := newEnvDeps(t, 2, nil, func(d *Deps) { d.Obs = o })
	c := e.client(t, "node0")

	var at vclock.Time
	for i := 0; i < 8; i++ {
		var err error
		at, err = c.Create(at, fmt.Sprintf("/w/lag%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	if s := e.region.MaxStaleness(); s != 0 {
		t.Fatalf("MaxStaleness = %d after drain, want 0", s)
	}
	if e.region.MaxCommitLag() <= 0 {
		t.Fatal("MaxCommitLag zero after committed ops")
	}
	for _, node := range e.nodes {
		if a := e.region.OldestUnacked(node); a != 0 {
			t.Fatalf("OldestUnacked(%s) = %d after drain, want 0", node, a)
		}
	}

	var sb strings.Builder
	o.WriteProm(&sb)
	prom := sb.String()
	for _, m := range []string{
		"pacon_max_staleness_ns", "pacon_max_commit_lag_ns",
		"pacon_queue_head_age_ns", "pacon_queue_oldest_unacked_ns_node0",
		"pacon_commit_lag_seconds_count",
	} {
		if !strings.Contains(prom, m) {
			t.Fatalf("exposition missing %s:\n%s", m, prom)
		}
	}
}

// TestStalenessCoversInFlightAndParkedOps: with the backend gated, the
// watermark must see both the op stuck in apply and the ops still
// queued; SimulateNodeFailure must release the queued ops' entries
// (they will never reach a commit-loop terminal).
func TestStalenessCoversInFlightAndParkedOps(t *testing.T) {
	gate := make(chan struct{})
	held := make(chan struct{}, 1)
	o := obs.New()
	e := newEnvDeps(t, 1, nil, func(d *Deps) {
		d.Obs = o
		prev := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &gatedBackend{Backend: prev(node), gate: gate, held: held}
		}
	})
	c := e.client(t, "node0")

	// The commit process pops the first op and blocks on the gate; the
	// remaining three, pushed after, stay queued.
	var at vclock.Time
	for i := 0; i < 4; i++ {
		var err error
		at, err = c.Create(at, fmt.Sprintf("/w/gated%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			waitHeld(t, held)
		}
	}
	if d := e.region.QueueDepth(); d != 3 {
		t.Fatalf("queue depth %d, want 3", d)
	}

	if e.region.MaxStaleness() <= 0 {
		t.Fatal("MaxStaleness zero with ops in flight")
	}
	if e.region.OldestUnacked("node0") <= 0 {
		t.Fatal("OldestUnacked zero with ops in flight")
	}
	if e.region.QueueHeadAge() <= 0 {
		t.Fatal("QueueHeadAge zero with queued ops")
	}
	if !e.region.PathPending("/w/gated2") {
		t.Fatal("PathPending false for a queued op")
	}
	if e.region.OldestPendingAge("/w/gated2") <= 0 {
		t.Fatal("OldestPendingAge zero for a queued op")
	}

	// In-flight work past the degraded threshold must surface in Health.
	h := e.region.Health(HealthThresholds{DegradedNS: 1})
	if h.Status < HealthDegraded {
		t.Fatalf("health %v with stale pipeline and 1ns threshold, want ≥ degraded", h.Status)
	}
	if len(h.Reasons) == 0 {
		t.Fatal("degraded health carries no reasons")
	}

	// Node failure discards the three queued ops; their tracker and lag
	// entries must be released or the watermark would stay pinned.
	if lost := e.region.SimulateNodeFailure("node0"); lost != 3 {
		t.Fatalf("SimulateNodeFailure lost %d ops, want 3", lost)
	}
	if e.region.PathPending("/w/gated2") {
		t.Fatal("PathPending true after the op was lost with its node")
	}

	close(gate)
	// Only the in-flight create remains; once it lands the region must
	// read fully converged again.
	deadline := time.Now().Add(5 * time.Second)
	for e.region.MaxStaleness() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("MaxStaleness still %d after gate release", e.region.MaxStaleness())
		}
		time.Sleep(time.Millisecond)
	}
}

// failBackend fails commit-surface mutations with a permanent
// (non-resubmittable) error, driving dropOp's backend_error terminal.
type failBackend struct {
	Backend
	err error
}

func (f *failBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	errs := make([]error, len(ops))
	for i := range errs {
		errs[i] = f.err
	}
	return errs, at, nil
}

// TestDropReasonCounters: a permanently failing commit must land in the
// per-reason drop counters, not just the aggregate.
func TestDropReasonCounters(t *testing.T) {
	o := obs.New()
	e := newEnvDeps(t, 1, nil, func(d *Deps) {
		d.Obs = o
		prev := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &failBackend{Backend: prev(node), err: errors.New("media failure")}
		}
	})
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/doomed", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	requireBackendErrorDrops(t, e.region)
	var sb strings.Builder
	o.WriteProm(&sb)
	if !strings.Contains(sb.String(), "pacon_ops_dropped_backend_error_total") {
		t.Fatal("exposition missing per-reason drop counter")
	}
}

// requireBackendErrorDrops fails unless r counted a backend_error drop
// and its dropped total equals the sum of the per-reason counters.
func requireBackendErrorDrops(t *testing.T, r *Region) {
	t.Helper()
	byReason := r.DroppedByReason()
	if byReason[dropReasonBackendError] == 0 {
		t.Fatalf("backend_error drops not counted: %v", byReason)
	}
	var total int64
	for _, n := range byReason {
		total += n
	}
	if got := r.Stats().Dropped; got != total {
		t.Fatalf("dropped total %d != sum of reasons %d (%v)", got, total, byReason)
	}
}

// failWriteBackend fails its first WriteAt with a permanent error.
type failWriteBackend struct {
	Backend
	failed atomic.Bool
}

func (f *failWriteBackend) WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	if f.failed.CompareAndSwap(false, true) {
		return at, errors.New("media failure")
	}
	return f.Backend.WriteAt(at, p, off, data)
}

// TestWritebackDropCountsReason: a create carrying inline data commits
// and then loses its write-back to a permanent WriteAt failure. That
// drop must land in a per-reason counter like every other drop.
func TestWritebackDropCountsReason(t *testing.T) {
	gate := make(chan struct{})
	held := make(chan struct{}, 1)
	e := newEnvDeps(t, 1, nil, func(d *Deps) {
		prev := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &gatedBackend{Backend: &failWriteBackend{Backend: prev(node)}, gate: gate, held: held}
		}
	})
	c := e.client(t, "node0")

	// Hold the commit process on a first create so the create and write
	// of /w/f dequeue together and coalesce into one create carrying
	// the inline bytes.
	at, err := c.Create(0, "/w/first", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	waitHeld(t, held)
	if at, err = c.Create(at, "/w/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if at, err = c.WriteAt(at, "/w/f", 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	if s := e.region.Stats(); s.Dropped != 1 || s.Coalesced != 1 {
		t.Fatalf("stats %+v, want 1 dropped write-back of 1 coalesced create", s)
	}
	requireBackendErrorDrops(t, e.region)
}

// TestHealthVerdicts: the typed status must fold in the recorded audit
// verdict, and a clean idle region must read ok.
func TestHealthVerdicts(t *testing.T) {
	e := newEnv(t, 1, nil)

	h := e.region.Health(HealthThresholds{})
	if h.Status != HealthOK {
		t.Fatalf("idle region health %v (%v), want ok", h.Status, h.Reasons)
	}
	if _, ok := e.region.LastAudit(); ok {
		t.Fatal("LastAudit set before any audit ran")
	}

	e.region.RecordAudit(AuditVerdict{Sampled: 10, Matched: 8, Divergent: 2})
	h = e.region.Health(HealthThresholds{})
	if h.Status != HealthStalled {
		t.Fatalf("health %v with divergent audit, want stalled", h.Status)
	}
	if h.LastAudit == nil || h.LastAudit.Divergent != 2 {
		t.Fatalf("health does not carry the audit verdict: %+v", h.LastAudit)
	}
	if got := HealthStalled.String(); got != "stalled" {
		t.Fatalf("HealthStalled renders %q", got)
	}
}

// TestRegisterMetricsIdempotentAcrossRegions: a region restart
// (checkpoint/restore, tests) re-registers every gauge and counter on
// the shared registry; names must be replaced, not duplicated, and the
// exposition must read the live region.
func TestRegisterMetricsIdempotentAcrossRegions(t *testing.T) {
	o := obs.New()
	newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
	e2 := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
	c := e2.client(t, "node0")
	at, err := c.Create(0, "/w/second-region", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	o.WriteProm(&sb)
	prom := sb.String()
	if n := strings.Count(prom, "# TYPE pacon_queue_depth gauge"); n != 1 {
		t.Fatalf("queue_depth registered %d times, want 1:\n%s", n, prom)
	}
	if n := strings.Count(prom, "# TYPE pacon_max_staleness_ns gauge"); n != 1 {
		t.Fatalf("max_staleness_ns registered %d times, want 1", n)
	}

	// Publishing the same expvar name from many goroutines must be safe
	// (expvar.Publish panics on duplicates; the publisher serializes).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.PublishExpvar("pacon-test-idempotent")
		}()
	}
	wg.Wait()
	if expvar.Get("pacon-test-idempotent") == nil {
		t.Fatal("expvar not published")
	}
}
