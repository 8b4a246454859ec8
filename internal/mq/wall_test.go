package mq

import (
	"testing"
	"time"
)

// TestOldestWallDisabled: with wall tracking off (the Obs-disabled
// default) the queue must never report an age — staleness gauges read
// zero rather than garbage.
func TestOldestWallDisabled(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1)
	q.PushBarrier(1)
	if wall, ok := q.OldestWall(); ok || wall != 0 {
		t.Fatalf("OldestWall with tracking off = (%d, %v), want (0, false)", wall, ok)
	}
}

// TestOldestWallTracksHead: with tracking on, OldestWall follows the
// head item's push time — advancing monotonically as older items pop,
// stamping barrier items too, and going empty-false after a drain.
func TestOldestWallTracksHead(t *testing.T) {
	q := NewQueue[int]()
	q.TrackWall(true)

	if _, ok := q.OldestWall(); ok {
		t.Fatal("OldestWall reported a wall on an empty queue")
	}

	before := time.Now().UnixNano()
	q.Push(1)
	time.Sleep(time.Millisecond)
	q.PushBarrier(7)
	time.Sleep(time.Millisecond)
	q.Push(2)
	after := time.Now().UnixNano()

	w1, ok := q.OldestWall()
	if !ok || w1 < before || w1 > after {
		t.Fatalf("head wall %d outside push window [%d, %d] (ok=%v)", w1, before, after, ok)
	}

	pop(q) // op 1
	w2, ok := q.OldestWall()
	if !ok || w2 < w1 {
		t.Fatalf("barrier head wall %d went backwards from %d (ok=%v)", w2, w1, ok)
	}

	pop(q) // barrier
	w3, ok := q.OldestWall()
	if !ok || w3 < w2 {
		t.Fatalf("final head wall %d went backwards from %d (ok=%v)", w3, w2, ok)
	}

	pop(q) // op 2
	if _, ok := q.OldestWall(); ok {
		t.Fatal("OldestWall still reporting after drain")
	}
}
