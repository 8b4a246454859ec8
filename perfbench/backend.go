package main

import (
	"sync"
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// dfsBackend is core.Backend plus every optional capability core
// type-asserts on a backend: Pace (client pacing), StatFresh and
// StatBatch (fresh and bulk miss-loads), InvalidateSubtree (rmdir and
// rename fan-out) and SetTrace/ClearTrace (trace propagation).
// *dfs.Client has them all; tracedBackend must forward them all, or
// core silently takes its fallback paths.
type dfsBackend interface {
	core.Backend
	Pace(p *vclock.Pacer, id int)
	StatFresh(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error)
	StatBatch(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error)
	InvalidateSubtree(root string)
	SetTrace(span uint64)
	ClearTrace()
}

var (
	_ dfsBackend = (*dfs.Client)(nil)
	_ dfsBackend = (*tracedBackend)(nil)
)

// method names the timed backend methods.
type method int

const (
	mStat method = iota
	mStatFresh
	mStatBatch
	mMkdir
	mCreateWithStat
	mSetStat
	mRemove
	mRmTree
	mRename
	mReaddir
	mWriteAt
	mReadAt
	mApplyBatch
	numMethods
)

var methodNames = [numMethods]string{
	"Stat", "StatFresh", "StatBatch", "Mkdir", "CreateWithStat", "SetStat",
	"Remove", "RmTree", "Rename", "Readdir", "WriteAt", "ReadAt", "ApplyBatch",
}

func (m method) String() string { return methodNames[m] }

// side says who built a backend: the region's commit processes or a
// client.
type side int

const (
	sideCommit side = iota
	sideClient
)

func (s side) String() string { return [...]string{"commit", "client"}[s] }

var dfsSpanNames = func() (n [2][numMethods]string) {
	for s := sideCommit; s <= sideClient; s++ {
		for m := method(0); m < numMethods; m++ {
			n[s][m] = "dfs." + s.String() + "." + m.String()
		}
	}
	return n
}()

// tracedBackend times every call into the DFS client it wraps.
type tracedBackend struct {
	b     dfsBackend
	t     *tracer
	owner *clientTrace // nil on the commit side
}

func (tb *tracedBackend) span(m method, start int64) {
	tb.t.dfsSpan(tb.owner, m, start, tb.t.now())
}

func (tb *tracedBackend) Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	defer tb.span(mStat, tb.t.now())
	return tb.b.Stat(at, p)
}

func (tb *tracedBackend) StatFresh(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	defer tb.span(mStatFresh, tb.t.now())
	return tb.b.StatFresh(at, p)
}

func (tb *tracedBackend) StatBatch(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error) {
	defer tb.span(mStatBatch, tb.t.now())
	return tb.b.StatBatch(at, paths)
}

func (tb *tracedBackend) Mkdir(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	defer tb.span(mMkdir, tb.t.now())
	return tb.b.Mkdir(at, p, mode)
}

func (tb *tracedBackend) CreateWithStat(at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	defer tb.span(mCreateWithStat, tb.t.now())
	return tb.b.CreateWithStat(at, p, st)
}

func (tb *tracedBackend) SetStat(at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	defer tb.span(mSetStat, tb.t.now())
	return tb.b.SetStat(at, p, st)
}

func (tb *tracedBackend) Remove(at vclock.Time, p string) (vclock.Time, error) {
	defer tb.span(mRemove, tb.t.now())
	return tb.b.Remove(at, p)
}

func (tb *tracedBackend) RmTree(at vclock.Time, p string) ([]string, vclock.Time, error) {
	defer tb.span(mRmTree, tb.t.now())
	return tb.b.RmTree(at, p)
}

func (tb *tracedBackend) Rename(at vclock.Time, src, dst string) (vclock.Time, error) {
	defer tb.span(mRename, tb.t.now())
	return tb.b.Rename(at, src, dst)
}

func (tb *tracedBackend) Readdir(at vclock.Time, p string) ([]fsapi.DirEntry, vclock.Time, error) {
	defer tb.span(mReaddir, tb.t.now())
	return tb.b.Readdir(at, p)
}

func (tb *tracedBackend) WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	defer tb.span(mWriteAt, tb.t.now())
	return tb.b.WriteAt(at, p, off, data)
}

func (tb *tracedBackend) ReadAt(at vclock.Time, p string, off int64, n int) ([]byte, vclock.Time, error) {
	defer tb.span(mReadAt, tb.t.now())
	return tb.b.ReadAt(at, p, off, n)
}

func (tb *tracedBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	defer tb.span(mApplyBatch, tb.t.now())
	return tb.b.ApplyBatch(at, ops)
}

// The capabilities below are forwarded untimed: they do no I/O.

func (tb *tracedBackend) Pace(p *vclock.Pacer, id int) { tb.b.Pace(p, id) }

func (tb *tracedBackend) InvalidateSubtree(root string) { tb.b.InvalidateSubtree(root) }

func (tb *tracedBackend) SetTrace(span uint64) { tb.b.SetTrace(span) }

func (tb *tracedBackend) ClearTrace() { tb.b.ClearTrace() }

// backendFactory is the deployment's Deps.NewBackend. Untraced it hands
// out plain DFS clients. Traced it wraps each one: a backend built while
// forClient is set belongs to that client, any other (the region's
// workspace check and its commit processes) is commit-side.
type backendFactory struct {
	cluster *dfs.Cluster
	t       *tracer

	mu        sync.Mutex
	built     int
	forClient *clientTrace
}

func (f *backendFactory) newBackend(node string) core.Backend {
	b := f.cluster.NewClient(node, appCred, 4096, time.Hour)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.built++
	if f.t == nil {
		return b
	}
	return &tracedBackend{b: b, t: f.t, owner: f.forClient}
}

func (f *backendFactory) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.built
}

// setClient tags the backends built until the next call as ct's.
func (f *backendFactory) setClient(ct *clientTrace) {
	f.mu.Lock()
	f.forClient = ct
	f.mu.Unlock()
}
