package main

import (
	"fmt"
)

// layerMetrics adds the traced run's per-layer metrics to rep. Counts
// are deltas over the measured window; "_per_op" divides by the
// successful client calls of the window.
func layerMetrics(rep *report, m *measurement, t *tracer) {
	ops := m.okOps
	b, a := m.before, m.after
	per := func(n int64) float64 { return ratio(float64(n), ops) }

	// core client calls.
	rep.add("core.stat_self_us_p50", "us", t.opSelf[opStat].quantileUS(0.50), count(t.opSelf[opStat].count()))
	rep.add("core.stat_self_us_p99", "us", t.opSelf[opStat].quantileUS(0.99), "")
	rep.add("core.create_self_us_p50", "us", t.opSelf[opCreate].quantileUS(0.50), count(t.opSelf[opCreate].count()))
	rep.add("core.create_self_us_p99", "us", t.opSelf[opCreate].quantileUS(0.99), "")
	rep.add("core.write_us_p50", "us", t.opTotal[opWrite].quantileUS(0.50), count(t.opTotal[opWrite].count()))
	rep.add("core.write_us_p99", "us", t.opTotal[opWrite].quantileUS(0.99), "")
	rep.add("core.read_us_p50", "us", t.opTotal[opRead].quantileUS(0.50), count(t.opTotal[opRead].count()))
	rep.add("core.readdir_us_p99", "us", t.opTotal[opReaddir].quantileUS(0.99), count(t.opTotal[opReaddir].count()))
	rep.add("core.rmdir_us_p99", "us", t.opTotal[opRmdir].quantileUS(0.99), count(t.opTotal[opRmdir].count()))

	// rpc + wire, per address class.
	cls := func(c addrClass) (calls, ns, errs int64) {
		r := &t.rpc[c]
		return r.calls.Load(), r.ns.Load(), r.errors.Load()
	}
	cacheCalls, cacheNS, cacheErrs := cls(classCache)
	mdsCalls, mdsNS, mdsErrs := cls(classMDS)
	dataCalls, _, dataErrs := cls(classData)
	rep.add("rpc.cache_calls_per_op", "count", per(cacheCalls), "")
	rep.add("rpc.cache_call_us_mean", "us", ratio(float64(cacheNS), float64(cacheCalls))/1e3, "")
	rep.add("rpc.mds_calls_per_op", "count", per(mdsCalls), "")
	rep.add("rpc.mds_call_us_mean", "us", ratio(float64(mdsNS), float64(mdsCalls))/1e3, "")
	rep.add("rpc.data_calls_per_op", "count", per(dataCalls), "")
	rep.add("rpc.bytes_per_op", "B", per(a.busBytes-b.busBytes), "request payload bytes")
	rep.add("rpc.errors", "count", float64(cacheErrs+mdsErrs+dataErrs), "")

	// memcache.
	hits, misses := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	rep.add("memcache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), fmt.Sprintf("%d hits %d misses", hits, misses))
	rep.add("memcache.bytes_per_entry", "B", ratio(float64(m.cacheBytes), float64(m.cacheItems)), fmt.Sprintf("%d items", m.cacheItems))
	rep.add("memcache.served_ops_per_op", "count", per(a.cache.ServedOps-b.cache.ServedOps), "")

	// mq.
	depthMax := 0
	for _, x := range m.depths {
		depthMax = max(depthMax, x)
	}
	rep.add("mq.depth_p99", "count", quantileInts(append([]int(nil), m.depths...), 0.99), fmt.Sprintf("%d samples", len(m.depths)))
	rep.add("mq.depth_max", "count", float64(depthMax), "")
	rep.add("mq.drain_ms", "ms", float64(m.drainWall.Microseconds())/1e3, "")
	rep.add("mq.virtual_drain_ms", "ms", float64(m.drainVirt.Microseconds())/1e3, "")

	// commit loop.
	rs, rb := a.region, b.region
	committed := rs.Committed - rb.Committed
	coalesced := rs.Coalesced - rb.Coalesced
	rep.add("commit.coalesced_ratio", "ratio", ratio(float64(coalesced), float64(committed+coalesced)), fmt.Sprintf("%d committed", committed))
	rep.add("commit.ops_per_batch", "count", ratio(float64(rs.BatchedOps-rb.BatchedOps), float64(rs.BatchRPCs-rb.BatchRPCs)), "")
	rep.add("commit.backend_rpcs_per_op", "count", per(rs.BackendRPCs-rb.BackendRPCs), "")
	rep.add("commit.cache_rpcs_per_op", "count", per(rs.CacheRPCs-rb.CacheRPCs), "")
	rep.add("commit.retries", "count", float64(rs.Retries-rb.Retries), "")
	rep.add("commit.dropped", "count", float64(rs.Dropped-rb.Dropped), "")
	rep.add("commit.batch_fallbacks", "count", float64(rs.BatchFallbacks-rb.BatchFallbacks), "")
	rep.add("commit.barriers_scoped", "count", float64(rs.BarriersScoped-rb.BarriersScoped), "")
	rep.add("commit.barriers_full", "count", float64(rs.BarriersFull-rb.BarriersFull), "")
	rep.add("commit.evictions", "count", float64(rs.Evictions-rb.Evictions), "")
	rep.add("commit.cache_warms", "count", float64(rs.CacheWarms-rb.CacheWarms), "")

	// dfs client / router, as seen by the backend decorator.
	commitSide, clientSide := &t.dfs[sideCommit], &t.dfs[sideClient]
	var singletons int64
	for _, mm := range []method{mMkdir, mCreateWithStat, mSetStat, mRemove, mRmTree, mRename, mWriteAt} {
		singletons += commitSide[mm].count()
	}
	ab := &commitSide[mApplyBatch]
	rep.add("dfs.commit_apply_batch_per_op", "count", per(ab.count()), "")
	rep.add("dfs.commit_apply_batch_us_p50", "us", ab.quantileUS(0.50), count(ab.count()))
	rep.add("dfs.commit_apply_batch_us_p99", "us", ab.quantileUS(0.99), "")
	rep.add("dfs.commit_singleton_per_op", "count", per(singletons), "")
	var stats hist
	for _, mm := range []method{mStat, mStatFresh, mStatBatch} {
		stats.merge(&clientSide[mm])
	}
	rep.add("dfs.client_stat_per_op", "count", per(stats.count()), "")
	rep.add("dfs.client_stat_us_p99", "us", stats.quantileUS(0.99), count(stats.count()))
	w := &clientSide[mWriteAt]
	rep.add("dfs.client_write_us_p50", "us", w.quantileUS(0.50), count(w.count()))
	rep.add("dfs.client_write_us_p99", "us", w.quantileUS(0.99), "")
	rd := &clientSide[mReaddir]
	rep.add("dfs.client_readdir_us_p99", "us", rd.quantileUS(0.99), count(rd.count()))

	// MDS shards on the virtual clock.
	var mdsOps, maxOps int64
	var wait, maxBusy float64
	for i := range a.mdsOps {
		n := a.mdsOps[i] - b.mdsOps[i]
		mdsOps += n
		maxOps = max(maxOps, n)
		wait += float64(a.mdsWait[i] - b.mdsWait[i])
		maxBusy = max(maxBusy, float64(a.mdsBusy[i]-b.mdsBusy[i]))
	}
	rep.add("mds.ops_per_op", "count", per(mdsOps), "")
	rep.add("mds.queue_wait_us_per_op", "us", ratio(wait/1e3, ops), "virtual")
	rep.add("mds.util_max", "ratio", ratio(maxBusy, float64(model.MDSWorkers)*float64(m.virt)), "busiest shard, virtual")
	rep.add("mds.shard_skew", "ratio", ratio(float64(maxOps), float64(mdsOps)/float64(len(a.mdsOps))), "max/mean served ops")

	// Go runtime.
	rep.add("runtime.alloc_bytes_per_op", "B", per(int64(a.mem.TotalAlloc-b.mem.TotalAlloc)), "")
	rep.add("runtime.allocs_per_op", "count", per(int64(a.mem.Mallocs-b.mem.Mallocs)), "")
	rep.add("runtime.gc_cycles", "count", float64(a.mem.NumGC-b.mem.NumGC), "")
}

func count(n int64) string { return fmt.Sprintf("n=%d", n) }

// merge adds o's counts into h.
func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
	h.sum.Add(o.sum.Load())
}
