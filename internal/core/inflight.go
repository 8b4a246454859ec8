package core

import (
	"sync"

	"pacon/internal/namespace"
)

// inflightTable is one node's record of the ops that entered its commit
// pipeline and have not reached a terminal state — queued, in flight or
// parked alike. It is the single per-node fact the commit module needs
// (§III.E): scoped barriers ask it which queues hold work under a
// subtree, the auditor asks whether a path is still pending, the
// consistency-lag gauges read its oldest enqueue wall, and the commit
// process asks whether a same-path op is parked ahead of a new one.
//
// An op enters through add before its queue push (a scoped barrier that
// snapshots the table between the two sees the op it might have to wait
// for; the reverse order would let a fast commit process reach the
// terminal before the add and leak the entry) and leaves through
// release, called only from Region.opTerminal: committed, discarded,
// dropped, absorbed by the coalescer, lost with a failed node, or never
// pushed at all.
type inflightTable struct {
	mu     sync.Mutex
	paths  map[string]inflightEntry
	parked int // sum of every entry's parked count
}

// inflightEntry is one path's row, stored by value so tracking a path
// without observability allocates nothing beyond the map slot.
type inflightEntry struct {
	refs   int32   // ops for the path not yet terminal
	parked int32   // of those, ops resident in the pending set
	walls  []int64 // enqueue walls of the ops that carry Op.EnqWall
}

func newInflightTable() *inflightTable {
	return &inflightTable{paths: make(map[string]inflightEntry)}
}

// add registers an op about to be pushed.
func (t *inflightTable) add(op Op) {
	t.mu.Lock()
	e := t.paths[op.Path]
	e.refs++
	if op.EnqWall != 0 {
		e.walls = append(e.walls, op.EnqWall)
	}
	t.paths[op.Path] = e
	t.mu.Unlock()
}

// park marks one of path's ops as resident in the pending set; the op's
// release clears the mark (a parked op stays parked until its terminal).
func (t *inflightTable) park(path string) {
	t.mu.Lock()
	e := t.paths[path]
	e.parked++
	t.paths[path] = e
	t.parked++
	t.mu.Unlock()
}

// release retires op's row reference, its parked mark (op.Parked) and
// its enqueue wall. The row is deleted when its last reference goes; a
// second release of the same op would leave a negative count behind
// rather than vanish silently.
func (t *inflightTable) release(op Op) {
	t.mu.Lock()
	e := t.paths[op.Path]
	e.refs--
	if op.Parked {
		e.parked--
		t.parked--
	}
	if op.EnqWall != 0 {
		for i, w := range e.walls {
			if w == op.EnqWall {
				e.walls[i] = e.walls[len(e.walls)-1]
				e.walls = e.walls[:len(e.walls)-1]
				break
			}
		}
	}
	if e.refs == 0 && e.parked == 0 {
		delete(t.paths, op.Path)
	} else {
		t.paths[op.Path] = e
	}
	t.mu.Unlock()
}

// pending reports whether any op for exactly path p is not yet terminal.
func (t *inflightTable) pending(p string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.paths[p].refs > 0
}

// blocks reports whether an op for path p is parked: a later same-path
// op must park behind it to keep per-path FIFO.
func (t *inflightTable) blocks(p string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.paths[p].parked > 0
}

// parkedOps returns how many of the node's ops are parked.
func (t *inflightTable) parkedOps() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.parked)
}

// hasUnder reports whether any pending path lies in scope's subtree.
func (t *inflightTable) hasUnder(scope string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := range t.paths {
		if namespace.IsUnder(p, scope) {
			return true
		}
	}
	return false
}

// oldest returns the minimum resident enqueue wall — over every path
// when p is "", else over exactly p — or 0 when none is tracked.
func (t *inflightTable) oldest(p string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var min int64
	scan := func(ws []int64) {
		for _, w := range ws {
			if min == 0 || w < min {
				min = w
			}
		}
	}
	if p != "" {
		scan(t.paths[p].walls)
		return min
	}
	for _, e := range t.paths {
		scan(e.walls)
	}
	return min
}
