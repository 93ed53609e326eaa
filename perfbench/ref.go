package main

import (
	"sync"
	"time"
)

// The host reference: a fixed 4-ary heap hold loop written here, in the
// benchmark, so no change to the program can move it. It does the same
// kind of work as the simulators (a small heap of event times, branchy
// sift loops, float compares) and runs on every worker at once, as the
// job does. Timed right after each repetition, it measures how fast the
// host is at that moment; the end-to-end metrics are scaled by it to a
// host that runs one reference step in refNominalNs. On a shared host
// whose speed drifts by ±20% over tens of seconds, the scaled metrics
// spread 1.2 to 7 times less from run to run than the raw ones.

const (
	refNominalNs = 25 // ns per reference step on the reference host
	refSteps     = 1 << 20
	refHeap      = 8 // standing events, like an 8-lane coupled kernel
)

var refSink float64

// refHold runs steps hold operations: pop the earliest time, push it
// back a pseudo-random gap later.
func refHold(steps int, seed uint64) float64 {
	var gaps [4096]float64
	x := seed | 1
	for i := range gaps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		gaps[i] = float64(x>>11) / (1 << 53)
	}
	h := make([]float64, 0, refHeap)
	for i := 0; i < refHeap; i++ {
		h = append(h, gaps[i])
		for j := len(h) - 1; j > 0 && h[(j-1)/4] > h[j]; j = (j - 1) / 4 {
			h[(j-1)/4], h[j] = h[j], h[(j-1)/4]
		}
	}
	for s := 0; s < steps; s++ {
		h[0] += gaps[s&4095]
		for i := 0; ; {
			c := 4*i + 1
			if c >= len(h) {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < len(h); j++ {
				if h[j] < h[m] {
					m = j
				}
			}
			if h[i] <= h[m] {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	return h[0]
}

// reference runs refHold on workers goroutines at once and returns the
// wall and CPU nanoseconds per step and worker.
func reference(workers int) (wallNs, cpuNs float64) {
	c0, w0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	out := make([]float64, workers)
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = refHold(refSteps, uint64(w+1))
		}()
	}
	wg.Wait()
	refSink += out[0]
	steps := float64(refSteps)
	return float64(time.Since(w0).Nanoseconds()) / steps, float64((cpuTime() - c0).Nanoseconds()) / (steps * float64(workers))
}
