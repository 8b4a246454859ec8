package mq

import "testing"

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue[int]()
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		var ok bool
		if buf, _, _, ok = q.PopBatchInto(buf, 1); !ok {
			b.Fatal("pop failed")
		}
	}
}

func BenchmarkQueueContendedPublishers(b *testing.B) {
	q := NewQueue[int]()
	done := make(chan struct{})
	go func() {
		var buf []int
		for {
			var ok bool
			if buf, _, _, ok = q.PopBatchInto(buf, 1); !ok {
				close(done)
				return
			}
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Push(1)
		}
	})
	q.Close()
	<-done
}

func BenchmarkBarrierEpoch(b *testing.B) {
	bar := NewBarrier(1)
	for i := 0; i < b.N; i++ {
		e, err := bar.Begin()
		if err != nil {
			b.Fatal(err)
		}
		bar.Arrive(e, 0)
		if _, err := bar.AwaitArrivals(e); err != nil {
			b.Fatal(err)
		}
		bar.Release(e, 0)
		if _, err := bar.AwaitRelease(e); err != nil {
			b.Fatal(err)
		}
	}
}
