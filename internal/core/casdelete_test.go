package core

import (
	"bytes"
	"errors"
	"testing"

	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// Regression tests for the lost-update races in the cleanup paths: every
// site that used to Get → decode → Delete unconditionally now issues one
// server-side conditional op (deleteIf, clearDirty) that the cache
// server evaluates under its shard lock. A conflicting write therefore
// either lands before the conditional op — which must then see it and
// keep the entry — or after it, on a key the op no longer touches. Each
// test stores the conflicting (newer) value first and then runs the
// cleanup path: on the server that is the whole race.

// rawCache returns a memcache client on the region's ring for direct
// white-box manipulation of cache values.
func rawCache(e *env) *memcache.Client {
	return memcache.NewClient(rpc.NewCaller(e.bus, vclock.Default(), "node0"), e.region.Ring())
}

func findEntry(t *testing.T, r *Region, path string) (CacheEntry, bool) {
	t.Helper()
	dump, err := r.DumpCache()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dump {
		if e.Path == path {
			return e, true
		}
	}
	return CacheEntry{}, false
}

// TestEvictionKeepsRacingDirtyWrite: a SetStat (inline write) dirties a
// clean committed entry just before eviction reaches it. The entry is
// the primary copy of that write — an unguarded delete would lose it;
// eviction's clean-only conditional delete must keep it.
func TestEvictionKeepsRacingDirtyWrite(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/victim", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = c.WriteAt(at, "/w/victim", 0, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	at, err = e.region.Drain(at)
	if err != nil {
		t.Fatal(err)
	}
	if ent, ok := findEntry(t, e.region, "/w/victim"); !ok || ent.Dirty {
		t.Fatalf("want clean cached entry before eviction, got %+v ok=%v", ent, ok)
	}

	// The racing writer dirties the entry ahead of the eviction.
	writer := e.client(t, "node0")
	if _, err := writer.WriteAt(at, "/w/victim", 0, []byte("racy-new-data")); err != nil {
		t.Fatalf("racing write: %v", err)
	}

	if _, err := e.region.evictSubtree(c, at, "/w/victim", false); err != nil {
		t.Fatal(err)
	}

	// The dirty write survived eviction: still resident, still dirty.
	ent, ok := findEntry(t, e.region, "/w/victim")
	if !ok {
		t.Fatal("dirty primary copy evicted — racing write lost")
	}
	if !ent.Dirty || string(ent.Stat.Inline) != "racy-new-data" {
		t.Fatalf("entry after eviction = %+v", ent)
	}

	// And it commits: after a drain both cache view and DFS carry it.
	at, err = e.region.Drain(vclock.Time(1 << 40))
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := c.ReadAt(at, "/w/victim", 0, 64)
	if err != nil || !bytes.Equal(data, []byte("racy-new-data")) {
		t.Fatalf("read after drain = %q, %v", data, err)
	}
	st, err := e.dfs.MDS.Tree().Lookup("/w/victim")
	if err != nil || st.Size != int64(len("racy-new-data")) {
		t.Fatalf("DFS backup = %+v, %v", st, err)
	}
}

// TestEvictionStillRemovesCleanEntries: the guarded path must not change
// the no-race behavior — a clean entry is evicted as before.
func TestEvictionStillRemovesCleanEntries(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, err := c.Create(0, "/w/clean", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if _, err := e.region.evictSubtree(c, at, "/w/clean", false); err != nil {
		t.Fatal(err)
	}
	if _, ok := findEntry(t, e.region, "/w/clean"); ok {
		t.Fatal("clean committed entry not evicted")
	}
	if !e.dfs.MDS.Tree().Exists("/w/clean") {
		t.Fatal("eviction touched the DFS backup")
	}
}

// TestDropOpKeepsNewerIncarnation: dropOp abandons create seq=1 after a
// newer incarnation (seq=2) replaced the entry. An unguarded delete
// destroyed seq=2; the seq condition must keep it.
func TestDropOpKeepsNewerIncarnation(t *testing.T) {
	e := newEnv(t, 1, nil)
	mc := rawCache(e)

	old := cacheVal{dirty: true, seq: 1, stat: fsapi.NewFileStat(appCred, 0o644)}
	if _, _, err := mc.Set(0, "/w/phantom", old.encode(), 0); err != nil {
		t.Fatal(err)
	}
	newer := cacheVal{dirty: true, seq: 2, stat: fsapi.NewFileStat(appCred, 0o600)}
	if _, _, err := mc.Set(0, "/w/phantom", newer.encode(), 0); err != nil {
		t.Fatalf("racing re-create: %v", err)
	}

	now := vclock.Time(0)
	e.region.dropOp(Op{Kind: OpCreate, Path: "/w/phantom", Seq: 1}, &now, mc, nil, dropReasonRetryBudget)

	ent, ok := findEntry(t, e.region, "/w/phantom")
	if !ok {
		t.Fatal("newer incarnation deleted by dropOp")
	}
	if ent.Seq != 2 {
		t.Fatalf("surviving entry seq = %d, want 2", ent.Seq)
	}
	// Without a racing write, the phantom is cleaned as before.
	e.region.dropOp(Op{Kind: OpCreate, Path: "/w/phantom", Seq: 2}, &now, mc, nil, dropReasonRetryBudget)
	if _, ok := findEntry(t, e.region, "/w/phantom"); ok {
		t.Fatal("abandoned create's entry not cleaned")
	}
}

// TestFinishRemoveKeepsNewerIncarnation: a create-after-rm replaces the
// removed marker before finishRemove cleans it. The fresh live entry
// must survive.
func TestFinishRemoveKeepsNewerIncarnation(t *testing.T) {
	e := newEnv(t, 1, nil)
	mc := rawCache(e)

	marker := cacheVal{removed: true, dirty: true, seq: 1, stat: fsapi.NewFileStat(appCred, 0o644)}
	if _, _, err := mc.Set(0, "/w/reborn", marker.encode(), 0); err != nil {
		t.Fatal(err)
	}
	live := cacheVal{dirty: true, seq: 2, stat: fsapi.NewFileStat(appCred, 0o600)}
	if _, _, err := mc.Set(0, "/w/reborn", live.encode(), 0); err != nil {
		t.Fatalf("racing create-after-rm: %v", err)
	}

	now := vclock.Time(0)
	e.region.finishRemove(Op{Kind: OpRemove, Path: "/w/reborn", Seq: 1}, &now, mc)

	ent, ok := findEntry(t, e.region, "/w/reborn")
	if !ok {
		t.Fatal("create-after-rm entry deleted by finishRemove")
	}
	if ent.Removed || ent.Seq != 2 {
		t.Fatalf("surviving entry = %+v", ent)
	}

	// The committed marker itself is still cleaned when unraced.
	marker.seq = 3
	if _, _, err := mc.Set(0, "/w/gone", marker.encode(), 0); err != nil {
		t.Fatal(err)
	}
	e.region.finishRemove(Op{Kind: OpRemove, Path: "/w/gone", Seq: 3}, &now, mc)
	if _, ok := findEntry(t, e.region, "/w/gone"); ok {
		t.Fatal("committed removed marker not cleaned")
	}
}

// TestDiscardRuleKeepsNewerIncarnation: the rmdir discard rule processes
// a create whose path already got a newer incarnation (created after
// the rmdir window closed). The seed code deleted it unconditionally;
// the seq condition must keep it.
func TestDiscardRuleKeepsNewerIncarnation(t *testing.T) {
	e := newEnv(t, 1, nil)
	mc := rawCache(e)
	backend := e.region.deps.NewBackend("node0")

	e.region.addRemoving("/w/doomed")
	defer e.region.delRemoving("/w/doomed")

	old := cacheVal{dirty: true, seq: 1, stat: fsapi.NewFileStat(appCred, 0o644)}
	if _, _, err := mc.Set(0, "/w/doomed/f", old.encode(), 0); err != nil {
		t.Fatal(err)
	}
	newer := cacheVal{dirty: true, seq: 2, stat: fsapi.NewFileStat(appCred, 0o600)}
	if _, _, err := mc.Set(0, "/w/doomed/f", newer.encode(), 0); err != nil {
		t.Fatalf("racing re-create: %v", err)
	}

	now := vclock.Time(0)
	discardedBefore := e.region.Stats().Discarded
	if failed := e.region.applyWave([]Op{{Kind: OpCreate, Path: "/w/doomed/f", Seq: 1,
		Stat: fsapi.NewFileStat(appCred, 0o644)}}, &now, backend, mc, nil); len(failed) > 0 {
		t.Fatal("discarded create must not be resubmitted")
	}
	if e.region.Stats().Discarded != discardedBefore+1 {
		t.Fatal("discard not accounted")
	}
	ent, ok := findEntry(t, e.region, "/w/doomed/f")
	if !ok {
		t.Fatal("newer incarnation deleted by the discard rule")
	}
	if ent.Seq != 2 {
		t.Fatalf("surviving entry seq = %d, want 2", ent.Seq)
	}
}

// TestEvictRoundRobinAdvancesByName: the rotation must progress through
// the directory by name even when the entry set changes between rounds —
// an index cursor re-applied to a re-read listing repeats or skips.
func TestEvictRoundRobinAdvancesByName(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at := vclock.Time(0)
	var err error
	for _, name := range []string{"e0", "e1", "e2", "e3", "e4"} {
		if at, err = c.Create(at, "/w/"+name, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	cached := func(p string) bool {
		_, ok := findEntry(t, e.region, p)
		return ok
	}
	// Round 1: first entry in name order.
	if at, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if cached("/w/e0") {
		t.Fatal("round 1 did not evict e0")
	}
	// An entry appears at the front of the listing (committed directly on
	// the DFS): the rotation must continue at e1, not revisit from an
	// index.
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Create(at, "/w/a-front", 0o666); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if cached("/w/e1") {
		t.Fatal("round 2 did not advance to e1 after the listing grew")
	}
	// An entry vanishes from the listing (removed on the DFS): the
	// rotation skips past the gap to the next surviving name.
	if _, err := admin.Remove(at, "/w/e2"); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if cached("/w/e3") {
		t.Fatal("round 3 did not advance to e3 after the listing shrank")
	}
	if !cached("/w/e4") {
		t.Fatal("round 3 overshot to e4")
	}
	// Wrap-around: after the last name, rotation restarts at the front.
	if at, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if cached("/w/e4") {
		t.Fatal("round 4 did not evict e4")
	}
	if _, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if got := e.region.evictLast; got != "a-front" {
		t.Fatalf("round 5 wrapped to %q, want a-front", got)
	}
}

// TestPendingSetReleasesZeroCountPaths: a parked path's row must leave
// the in-flight table when its last op reaches its terminal, or the
// table grows with every path that ever parked over the life of the
// commit loop.
func TestPendingSetReleasesZeroCountPaths(t *testing.T) {
	table := newInflightTable()
	p := pendingSet{table: table}
	for _, path := range []string{"/w/a", "/w/a", "/w/b"} {
		op := Op{Path: path}
		table.add(op)
		p.add(op, "test")
	}
	table.release(p.ops[0].op)
	if !p.blocks("/w/a") {
		t.Fatal("one parked op remains — /w/a must still block")
	}
	table.release(p.ops[1].op)
	if p.blocks("/w/a") {
		t.Fatal("released path still blocks")
	}
	table.release(p.ops[2].op)
	if len(table.paths) != 0 || table.parked != 0 {
		t.Fatalf("zero-count rows leaked: %v (parked %d)", table.paths, table.parked)
	}
}

// TestRemoveCommitCleansMarkerViaCAS: end-to-end check that the normal
// (unraced) remove flow still deletes the marker after commit with the
// guarded path in place.
func TestRemoveCommitCleansMarkerViaCAS(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, _ := c.Create(0, "/w/f", 0o644)
	at, _ = c.Remove(at, "/w/f")
	at, err := e.region.Drain(at)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findEntry(t, e.region, "/w/f"); ok {
		t.Fatal("removed marker survived commit")
	}
	if _, _, err := c.Stat(at, "/w/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat after committed rm = %v", err)
	}
}

// TestMissLoadBypassesStaleDentry: a cache-miss load must read the
// authoritative backup copy, not the DFS client's dentry snapshot. The
// schedule poisons the client's dentry cache with a size-0 stat, commits
// a write asynchronously, evicts the clean entry, and stats again: the
// miss-load that follows installs its result as the region's primary
// copy, so serving the hour-long dentry TTL here would shadow the
// committed write until the next eviction (the bug the chaos harness
// first surfaced as a lost write under eviction pressure).
func TestMissLoadBypassesStaleDentry(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/fresh", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	// Evict and miss-load: the client's DFS backend now caches a
	// size-0 dentry for the path (TTL one hour of virtual time).
	if at, err = e.region.evictSubtree(c, at, "/w/fresh", false); err != nil {
		t.Fatal(err)
	}
	st, done, err := c.Stat(at, "/w/fresh")
	at = done
	if err != nil || st.Size != 0 {
		t.Fatalf("stat after first eviction = %+v, %v", st, err)
	}

	// Commit a write behind the dentry's back, then force the next
	// stat through the miss-load path again.
	if at, err = c.WriteAt(at, "/w/fresh", 0, []byte("eight by")); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.evictSubtree(c, at, "/w/fresh", false); err != nil {
		t.Fatal(err)
	}
	if _, ok := findEntry(t, e.region, "/w/fresh"); ok {
		t.Fatal("clean entry still cached; eviction did not run")
	}

	st, _, err = c.Stat(at, "/w/fresh")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(len("eight by")) {
		t.Fatalf("miss-load served a stale dentry: size = %d, want %d", st.Size, len("eight by"))
	}
}

// TestRecreateAfterEvictionAdopts: re-creating a path whose clean cache
// entry was evicted hits ErrExist at commit time (the DFS object never
// went away). Without the create-after-rm disambiguation the commit
// assumed a doomed old incarnation and resubmitted until the budget
// dropped the op; it must instead adopt the existing object and
// converge with nothing dropped.
func TestRecreateAfterEvictionAdopts(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/again", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = c.Mkdir(at, "/w/againdir", 0o755); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.evictSubtree(c, at, "/w/again", false); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.evictSubtree(c, at, "/w/againdir", true); err != nil {
		t.Fatal(err)
	}

	// Both re-creations are accepted by the cache (the entries are
	// gone) and must commit by adoption, not exhaust the budget.
	if at, err = c.Create(at, "/w/again", 0o600); err != nil {
		t.Fatal(err)
	}
	if at, err = c.Mkdir(at, "/w/againdir", 0o700); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	if s := e.region.Stats(); s.Dropped != 0 {
		t.Fatalf("re-creation was dropped instead of adopted: %+v", s)
	}
	for _, p := range []string{"/w/again", "/w/againdir"} {
		ent, ok := findEntry(t, e.region, p)
		if !ok || ent.Dirty {
			t.Fatalf("%s after drain = %+v ok=%v, want clean resident entry", p, ent, ok)
		}
		if !e.dfs.MDS.Tree().Exists(p) {
			t.Fatalf("%s missing from DFS after adoption", p)
		}
	}
}
