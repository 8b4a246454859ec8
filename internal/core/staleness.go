package core

import "time"

// This file is the consistency-lag half of the observability seam: the
// per-node in-flight tables (see inflightTable) record the wall-clock
// enqueue time of every operation that has not yet reached a terminal
// state, and the oldest resident timestamp bounds how far the DFS
// backup copy trails the primary cache copy — the paper's
// inconsistency window, made measurable. Parked and retrying ops keep
// their entry, so the watermark covers them, unlike a queue-head gauge
// which forgets an op at dequeue. Everything here is wall clock only:
// with Deps.Obs unset no op carries an EnqWall and the watermarks read
// 0.

// OldestUnacked returns the age (ns of wall time) of the oldest
// operation in node's commit pipeline that has not reached the DFS —
// queued, in-flight, parked or retrying alike. 0 means the pipeline is
// empty or observability is disabled.
func (r *Region) OldestUnacked(node string) int64 {
	t := r.inflight[node]
	if t == nil {
		return 0
	}
	return ageOf(t.oldest(""))
}

// ageOf turns an enqueue wall into an age (0 stays 0: nothing tracked).
func ageOf(wall int64) int64 {
	if wall == 0 {
		return 0
	}
	return time.Now().UnixNano() - wall
}

// oldestWall returns the minimum resident enqueue wall across every
// node's in-flight table, for exactly path p or (p == "") any path.
func (r *Region) oldestWall(p string) int64 {
	var oldest int64
	for _, t := range r.inflight {
		if w := t.oldest(p); w != 0 && (oldest == 0 || w < oldest) {
			oldest = w
		}
	}
	return oldest
}

// MaxStaleness is the region-wide consistency-lag watermark: the age of
// the oldest unacknowledged operation across every node's pipeline —
// an upper bound on how far any DFS backup copy currently trails its
// primary cache copy. 0 means fully converged (or observability off).
func (r *Region) MaxStaleness() int64 { return ageOf(r.oldestWall("")) }

// MaxCommitLag returns the largest single enqueue→durable latency
// observed so far (ns): the peak width of the inconsistency window for
// any op that did reach the DFS.
func (r *Region) MaxCommitLag() int64 { return r.maxLagNS.Load() }

// noteCommitLag folds one committed op's lag into the peak watermark.
func (r *Region) noteCommitLag(lag int64) {
	for {
		cur := r.maxLagNS.Load()
		if lag <= cur || r.maxLagNS.CompareAndSwap(cur, lag) {
			return
		}
	}
}

// QueueHeadAge returns the age (ns) of the oldest still-queued message
// across the region's commit queues — residency of the message each
// commit process will dequeue next. Narrower than MaxStaleness (an op
// leaves the queue long before it is durable); useful for telling
// "queue is backed up" from "commits are failing". 0 when queues are
// empty or wall tracking is off.
func (r *Region) QueueHeadAge() int64 {
	var oldest int64
	for _, q := range r.queues {
		if w, ok := q.OldestWall(); ok && (oldest == 0 || w < oldest) {
			oldest = w
		}
	}
	if oldest == 0 {
		return 0
	}
	return time.Now().UnixNano() - oldest
}

// PathPending reports whether any op for exactly path p is still in
// some node's commit pipeline. The in-flight tables count ops
// regardless of observability, so the auditor can tell stale-pending
// from divergent even on a region with Deps.Obs unset.
func (r *Region) PathPending(p string) bool {
	for _, t := range r.inflight {
		if t.pending(p) {
			return true
		}
	}
	return false
}

// OldestPendingAge returns the age (ns) of the oldest in-flight op for
// exactly path p across all nodes, or 0 when none is tracked (path not
// pending, or observability disabled).
func (r *Region) OldestPendingAge(p string) int64 { return ageOf(r.oldestWall(p)) }

// ParkedOps returns how many ops sit in the commit processes' pending
// sets, parked awaiting resubmission or behind a parked same-path op.
func (r *Region) ParkedOps() int64 {
	var n int64
	for _, t := range r.inflight {
		n += t.parkedOps()
	}
	return n
}

// Drop reasons label the ops_dropped_* counters and StageDrop trace
// notes: without them, an op that never reached the DFS silently
// narrows the commit_lag histogram (dropped ops record no lag) and the
// operator cannot tell budget exhaustion from a poisoned op.
const (
	dropReasonRetryBudget  = "retry_budget"  // CommitRetryLimit exhausted
	dropReasonKindConflict = "kind_conflict" // file/dir kind mismatch: creation can never apply
	dropReasonBackendError = "backend_error" // non-retryable DFS error
)

// DroppedByReason breaks the dropped-op total down by terminal reason.
func (r *Region) DroppedByReason() map[string]int64 {
	return map[string]int64{
		dropReasonRetryBudget:  r.droppedRetry.Load(),
		dropReasonKindConflict: r.droppedConflict.Load(),
		dropReasonBackendError: r.droppedBackend.Load(),
	}
}

// SampleCommitted returns up to limit committed (clean, non-removed)
// cache entries across the region's servers, decoded. This is the
// divergence auditor's sampling source: clean entries are exactly the
// ones the region claims are durable on the DFS, so any mismatch found
// for them is a real consistency violation, not in-flight lag.
// Server-side header iteration picks the keys; the values are then
// fetched via ForEach-style snapshots. limit <= 0 means everything.
func (r *Region) SampleCommitted(limit int) []CacheEntry {
	var out []CacheEntry
	for _, s := range r.servers {
		want := -1
		if limit > 0 {
			want = limit - len(out)
			if want <= 0 {
				return out
			}
		}
		for _, kv := range s.CommittedItems(want) {
			v, err := decodeCacheVal(kv.Value)
			if err != nil || v.dirty || v.removed {
				continue // raced a mutation between header scan and decode
			}
			out = append(out, CacheEntry{
				Path:  kv.Key,
				Large: v.large,
				Seq:   v.seq,
				Stat:  v.stat,
			})
		}
	}
	return out
}
