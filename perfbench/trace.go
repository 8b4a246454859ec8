package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one client op
// share a trace id (the id of the op's root span); parent is 0 for a
// root.
type span struct {
	ID     uint64 `json:"id"`
	Trace  uint64 `json:"trace"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans kept in memory for the span file: a
// stat-heavy run makes millions, and the per-layer figures are folded
// into histograms as spans end, so only the file is truncated.
const maxKeptSpans = 200_000

// tracer collects the traced run's spans and per-layer tallies. It is
// nil in untraced runs, and every hook checks for that first.
type tracer struct {
	epoch time.Time // span times are nanoseconds since epoch
	ids   atomic.Uint64

	mu      sync.Mutex
	kept    []span
	dropped int64
	full    atomic.Bool
	// stopped ends recording when the measured window closes, so the
	// correctness checks that follow do not count as workload.
	stopped atomic.Bool

	// Client calls: total duration and self time (duration minus the
	// client's own DFS child spans) per op kind.
	opTotal, opSelf [numOpKinds]hist

	// DFS backend calls by side and method.
	dfs [2][numMethods]hist

	// RPC round trips by address class.
	rpc [numAddrClasses]struct {
		calls, ns, errors atomic.Int64
	}
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), kept: make([]span, 0, 1<<12)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) keep(s span) {
	t.mu.Lock()
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	} else {
		t.dropped++
		t.full.Store(true)
	}
	t.mu.Unlock()
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// clientTrace is one client goroutine's view of the tracer: it opens a
// root span per client call and collects the DFS child spans the
// client's own backend records while the call runs. Only the owning
// goroutine touches it.
type clientTrace struct {
	t        *tracer
	op       uint64 // root span id of the call in progress, 0 between calls
	kind     opKind
	start    int64
	children []interval
}

// clientTrace.begin and end bracket every client call the benchmark
// issues, and the checks issue none, so they need no stopped test.
func (c *clientTrace) begin(kind opKind) {
	c.op = c.t.ids.Add(1)
	c.kind = kind
	c.start = c.t.now()
	c.children = c.children[:0]
}

func (c *clientTrace) end() {
	end := c.t.now()
	c.t.opTotal[c.kind].record(end - c.start)
	c.t.opSelf[c.kind].record(selfTime(c.start, end, c.children))
	c.t.keep(span{ID: c.op, Trace: c.op, Name: c.kind.spanName(), Start: c.start, End: end})
	c.op = 0
}

// dfsSpan records a DFS backend call. Client-side calls made inside a
// client op become its children; commit-side calls (and client-side
// calls outside an op) are roots of their own trace.
func (t *tracer) dfsSpan(owner *clientTrace, m method, start, end int64) {
	if t.stopped.Load() {
		return
	}
	side := sideCommit
	if owner != nil {
		side = sideClient
	}
	t.dfs[side][m].record(end - start)
	id := t.ids.Add(1)
	s := span{ID: id, Trace: id, Name: dfsSpanNames[side][m], Start: start, End: end}
	if owner != nil && owner.op != 0 {
		s.Trace, s.Parent = owner.op, owner.op
		owner.children = append(owner.children, interval{start, end})
	}
	t.keep(s)
}

// addrClass sorts bus addresses into the three server kinds of the
// deployment.
type addrClass int

const (
	classCache addrClass = iota
	classMDS
	classData
	numAddrClasses
)

func (c addrClass) String() string { return [...]string{"cache", "mds", "data"}[c] }

// classify maps "node0/pacon-bench" to cache, "storage0/mds2" to mds and
// "s1/data" to data.
func classify(addr string) addrClass {
	svc := addr[strings.IndexByte(addr, '/')+1:]
	switch {
	case strings.HasPrefix(svc, "mds"):
		return classMDS
	case svc == "data":
		return classData
	default:
		return classCache
	}
}

// rpcObserver is the bus hook of the traced run: it counts and times
// every round trip per address class. Its spans are roots because the
// observer cannot see which call issued the RPC.
type rpcObserver struct{ t *tracer }

func (o rpcObserver) ObserveRPC(addr, method string, d time.Duration, err error) {
	if o.t.stopped.Load() {
		return
	}
	end := o.t.now()
	c := classify(addr)
	r := &o.t.rpc[c]
	r.calls.Add(1)
	r.ns.Add(int64(d))
	if err != nil {
		r.errors.Add(1)
	}
	if o.t.full.Load() {
		return // spare the name's allocation once the span file is full
	}
	id := o.t.ids.Add(1)
	o.t.keep(span{ID: id, Trace: id, Name: fmt.Sprintf("rpc.%s.%s", c, method), Start: end - int64(d), End: end})
}
