package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// generator is one closed-loop client: do draws one operation, performs it
// end to end — send, wait for the reply, verify it — compares the answer
// with the model, and reports the operation's kind and its latency from
// send to verified (drawing the operation and checking the model are the
// generator's own work and stay outside the latency). The next operation
// starts only when this one returns, so a slow system receives less load:
// database callers wait for their reply, which makes a closed loop.
type generator interface {
	do(sp *spanBuf, opID uint64) (kind string, latency time.Duration, err error)
}

// maxFailures stops a generator whose transport is evidently gone, so a
// dead connection cannot spin the loop for the rest of the run.
const maxFailures = 100

// sample is one passing operation: when it completed (microseconds into
// the interval) and how long it took.
type sample struct{ endUS, latUS float64 }

// runStats is one measured interval.
type runStats struct {
	seconds   float64
	attempted int
	failed    int
	firstErr  error
	// latUS holds every passing operation's latency in microseconds,
	// sorted; windows holds the same latencies split by completion time into
	// windows of windowSeconds, each sorted.
	latUS         []float64
	windows       [][]float64
	windowSeconds float64
}

// Each window of windowLen yields three figures: its throughput, and the
// median and the 95th percentile of the latencies of the operations that
// completed in it. The run's figure is the mean over the quiet eighth: the
// eighth of the windows in which that figure was best (throughput highest,
// latency lowest), chosen for each figure on its own.
//
// The reason is the machine: a few cores of a shared host, whose neighbours
// take a share of the processor for seconds to tens of seconds at a time. A
// neighbour never makes the program faster, so the windows with the best
// figures are the ones the host left alone. A median over all windows
// follows the host as soon as half the run is disturbed: ten 16 s runs
// under a neighbour that burns one core for 3 to 15 s, then rests as long,
// spread 0.31 between their quartiles on the median window's throughput and
// 0.06 on the quiet eighth's; left alone, both spread 0.03. README.md,
// Steadiness, has the tables.
const (
	windowLen     = time.Second
	quietFraction = 8 // the quiet eighth is one window in quietFraction
)

// splitWindows splits the interval into windows of windowLen by completion
// time and sorts each window's latencies.
func (r *runStats) splitWindows(samples []sample) {
	n := max(1, int(r.seconds/windowLen.Seconds()))
	span := r.seconds * 1e6 / float64(n)
	r.windows = make([][]float64, n)
	r.windowSeconds = span / 1e6
	r.latUS = make([]float64, 0, len(samples))
	for _, s := range samples {
		w := min(n-1, int(s.endUS/span))
		r.windows[w] = append(r.windows[w], s.latUS)
		r.latUS = append(r.latUS, s.latUS)
	}
	for _, w := range r.windows {
		sort.Float64s(w)
	}
	sort.Float64s(r.latUS)
}

// quietEighth is the mean of f over the eighth of the windows in which it
// was best: highest when higher is better, lowest otherwise. A window that
// completed nothing has no figure to offer.
func (r *runStats) quietEighth(higherIsBetter bool, f func(lat []float64) float64) float64 {
	var v []float64
	for _, w := range r.windows {
		if len(w) > 0 {
			v = append(v, f(w))
		}
	}
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	k := max(1, len(r.windows)/quietFraction)
	if higherIsBetter {
		v = v[max(0, len(v)-k):]
	} else {
		v = v[:min(k, len(v))]
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// throughput is passing operations per second: the quiet eighth's.
func (r *runStats) throughput() float64 {
	return r.quietEighth(true, func(lat []float64) float64 { return float64(len(lat)) / r.windowSeconds })
}

// latency is the q-quantile of latency: the quiet eighth's.
func (r *runStats) latency(q float64) float64 {
	return r.quietEighth(false, func(lat []float64) float64 { return quantile(lat, q) })
}

// drive runs every generator in its own goroutine for d and merges their
// samples. bufs, when non-nil, holds one span buffer per generator.
func drive(gens []generator, d time.Duration, bufs []*spanBuf) *runStats {
	type clientOut struct {
		samples  []sample
		failed   int
		firstErr error
	}
	outs := make([]clientOut, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g generator) {
			defer wg.Done()
			var sp *spanBuf
			if bufs != nil {
				sp = bufs[i]
			}
			o := &outs[i]
			for op := uint64(0); time.Now().Before(deadline) && o.failed < maxFailures; op++ {
				kind, lat, err := g.do(sp, op)
				if err != nil {
					if o.failed++; o.firstErr == nil {
						o.firstErr = fmt.Errorf("client %d op %d (%s): %w", i, op, kind, err)
					}
					continue
				}
				o.samples = append(o.samples, sample{
					endUS: float64(time.Since(start).Nanoseconds()) / 1e3,
					latUS: float64(lat.Nanoseconds()) / 1e3,
				})
			}
		}(i, g)
	}
	wg.Wait()
	r := &runStats{seconds: time.Since(start).Seconds()}
	var samples []sample
	for _, o := range outs {
		r.attempted += len(o.samples) + o.failed
		r.failed += o.failed
		if r.firstErr == nil {
			r.firstErr = o.firstErr
		}
		samples = append(samples, o.samples...)
	}
	r.splitWindows(samples)
	return r
}
