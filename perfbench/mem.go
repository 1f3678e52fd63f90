package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler samples the Go runtime's live heap — the bytes the last
// garbage collection found reachable (/gc/heap/live:bytes) — every few
// milliseconds on a background goroutine.
//
// The reported figure is the 90th percentile of the samples: the live-heap
// level the run stays at or below nine tenths of the time. Both the plain
// maximum and the runtime's total mapped memory
// (/memory/classes/total:bytes) depend on when a collection happens to run
// relative to allocation bursts, and spread by 15 to 45% between identical
// runs; the high percentile of the live heap moves only with what the
// program keeps, such as larger engine state.
type memSampler struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []float64
}

const memMetric = "/gc/heap/live:bytes"

// startMemSampler begins sampling until Stop.
func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: memMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			m.samples = append(m.samples, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the 90th percentile of the samples in MiB.
// Later calls return the same figure.
func (m *memSampler) Stop() float64 {
	m.once.Do(func() { close(m.stop) })
	<-m.done
	return quantile(m.samples, 0.9)
}
