package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// requireInflightEmpty fails unless every node's in-flight table is
// empty. Exactly-once release is what makes this the right check: a
// missed release leaves a positive row behind, a second release of the
// same op a negative one (release never deletes a row below zero).
func requireInflightEmpty(t *testing.T, r *Region) {
	t.Helper()
	for node, tab := range r.inflight {
		tab.mu.Lock()
		rows := fmt.Sprint(tab.paths)
		n, parked := len(tab.paths), tab.parked
		tab.mu.Unlock()
		if n != 0 || parked != 0 {
			t.Fatalf("%s in-flight table not empty: %s (parked %d)", node, rows, parked)
		}
	}
	if r.MaxStaleness() != 0 || r.ParkedOps() != 0 {
		t.Fatalf("watermarks disagree with the empty table: staleness %d, parked %d",
			r.MaxStaleness(), r.ParkedOps())
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// promGauge reads one gauge from the registry's exposition text.
func promGauge(t *testing.T, o *obs.Obs, name string) string {
	t.Helper()
	var sb strings.Builder
	o.WriteProm(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return f[1]
		}
	}
	t.Fatalf("exposition has no %s", name)
	return ""
}

// gatedEnv builds an observed region whose commit processes block on
// their first DFS mutation until open is called; held signals that a
// commit process is blocked (see gatedBackend). A test that fails
// before opening the gate still shuts the region down: the cleanup
// opens it first.
func gatedEnv(t *testing.T, nodes int, mutate func(*RegionConfig)) (e *env, open func(), held <-chan struct{}) {
	gate := make(chan struct{})
	heldc := make(chan struct{}, 1)
	e = newEnvDeps(t, nodes, mutate, func(d *Deps) {
		d.Obs = obs.New()
		prev := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &gatedBackend{Backend: prev(node), gate: gate, held: heldc}
		}
	})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	return e, open, heldc
}

// TestInflightReleasedExactlyOnce drives an op to each terminal the
// commit pipeline has and requires the in-flight table to end empty —
// no row leaked, none released twice — with the watermark readers
// agreeing with the table while ops are still resident.
func TestInflightReleasedExactlyOnce(t *testing.T) {
	t.Run("committed", func(t *testing.T) {
		o := obs.New()
		e := newEnvDeps(t, 2, nil, func(d *Deps) { d.Obs = o })
		at := vclock.Time(0)
		var err error
		for i := 0; i < 16; i++ {
			c := e.client(t, e.nodes[i%2])
			if at, err = c.Create(at, fmt.Sprintf("/w/c%d", i), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		if got := e.region.Stats().Committed; got != 16 {
			t.Fatalf("committed %d ops, want 16", got)
		}
		requireInflightEmpty(t, e.region)
	})

	t.Run("discarded", func(t *testing.T) {
		o := obs.New()
		e := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
		c := e.client(t, "node0")
		at, err := c.Mkdir(0, "/w/d", 0o755)
		if err != nil {
			t.Fatal(err)
		}
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		// A create accepted while an rmdir window covers its parent is
		// discarded at commit time (§III.D.1).
		e.region.addRemoving("/w/d")
		if at, err = c.Create(at, "/w/d/f", 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		e.region.delRemoving("/w/d")
		if got := e.region.Stats().Discarded; got != 1 {
			t.Fatalf("discarded %d ops, want 1", got)
		}
		requireInflightEmpty(t, e.region)
	})

	t.Run("dropped", func(t *testing.T) {
		e, open, held := gatedEnv(t, 1, func(cfg *RegionConfig) {
			cfg.DisableParentCheck = true
			cfg.CommitRetryLimit = 2
		})
		o := e.region.obs
		c := e.client(t, "node0")
		// Two same-path ops, kept apart by pushing the write only once
		// the create is held in apply: the orphan create parks on its
		// missing parent, and the write parks behind the create.
		at, err := c.Create(0, "/w/none/f", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		waitHeld(t, held)
		if at, err = c.WriteAt(at, "/w/none/f", 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		open()
		waitFor(t, "both ops parked", func() bool { return e.region.ParkedOps() == 2 })

		tab := e.region.inflight["node0"]
		tab.mu.Lock()
		row := tab.paths["/w/none/f"]
		tab.mu.Unlock()
		if row.refs != 2 || row.parked != 2 || len(row.walls) != 2 {
			t.Fatalf("row = %+v, want 2 refs, 2 parked, 2 walls", row)
		}
		if !e.region.PathPending("/w/none/f") || e.region.PathPending("/w/none") {
			t.Fatal("PathPending disagrees with the table")
		}
		if e.region.OldestPendingAge("/w/none/f") <= 0 || e.region.MaxStaleness() <= 0 ||
			e.region.OldestUnacked("node0") <= 0 {
			t.Fatal("age watermarks zero with two ops resident")
		}
		if got := promGauge(t, o, "pacon_parked_ops"); got != "2" {
			t.Fatalf("parked_ops gauge = %s, want 2", got)
		}
		if h := e.region.Health(HealthThresholds{}); h.ParkedOps != 2 {
			t.Fatalf("health parked_ops = %d, want 2", h.ParkedOps)
		}

		if _, err := e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		if got := e.region.Stats().Dropped; got != 2 {
			t.Fatalf("dropped %d ops, want 2", got)
		}
		requireInflightEmpty(t, e.region)
		if got := promGauge(t, o, "pacon_parked_ops"); got != "0" {
			t.Fatalf("parked_ops gauge = %s after drain, want 0", got)
		}
	})

	t.Run("coalesced", func(t *testing.T) {
		e, open, _ := gatedEnv(t, 1, nil)
		c := e.client(t, "node0")
		at, err := c.Create(0, "/w/first", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "first create in apply", func() bool { return e.region.QueueDepth() == 0 })
		// Queued behind the blocked apply, these dequeue as one batch
		// and fold into one op per path.
		for i := 0; i < 3; i++ {
			p := fmt.Sprintf("/w/co%d", i)
			if at, err = c.Create(at, p, 0o644); err != nil {
				t.Fatal(err)
			}
			if at, err = c.WriteAt(at, p, 0, []byte("data")); err != nil {
				t.Fatal(err)
			}
		}
		open()
		if _, err := e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		if got := e.region.Stats().Coalesced; got != 3 {
			t.Fatalf("coalesced %d ops, want 3", got)
		}
		requireInflightEmpty(t, e.region)
	})

	t.Run("push-failure", func(t *testing.T) {
		o := obs.New()
		e := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
		c := e.client(t, "node0")
		e.region.queues["node0"].Close()
		if _, err := c.Create(0, "/w/refused", 0o644); err == nil {
			t.Fatal("create on a closed queue succeeded")
		}
		requireInflightEmpty(t, e.region)
	})

	t.Run("node-failure", func(t *testing.T) {
		e, open, held := gatedEnv(t, 1, nil)
		c := e.client(t, "node0")
		var at vclock.Time
		for i := 0; i < 4; i++ {
			var err error
			if at, err = c.Create(at, fmt.Sprintf("/w/lost%d", i), 0o644); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				waitHeld(t, held)
			}
		}
		if d := e.region.QueueDepth(); d != 3 {
			t.Fatalf("queue depth %d, want 3", d)
		}
		if !e.region.PathPending("/w/lost3") {
			t.Fatal("queued op not pending")
		}
		if lost := e.region.SimulateNodeFailure("node0"); lost != 3 {
			t.Fatalf("lost %d ops, want 3", lost)
		}
		if e.region.PathPending("/w/lost3") || !e.region.PathPending("/w/lost0") {
			t.Fatal("node failure released the wrong rows")
		}
		open()
		if _, err := e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		requireInflightEmpty(t, e.region)
	})
}
