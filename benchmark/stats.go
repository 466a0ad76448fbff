package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted (nearest rank, 0 for empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timerOverheadUS is what reading the clock twice costs: the median of
// timing nothing. timeCall subtracts it, so a rung made of
// sub-microsecond calls is not inflated by its own stopwatch.
var timerOverheadUS = func() float64 {
	v := make([]float64, 2001)
	for i := range v {
		t0 := time.Now()
		v[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(v)
}()

func sinceUS(t0 time.Time) float64 {
	return max(0, float64(time.Since(t0).Nanoseconds())/1e3-timerOverheadUS)
}

// timeCall times one call in microseconds.
func timeCall(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return sinceUS(t0), err
}

// medianOf is the median of n calls of a body that times itself (with
// timeCall, around just the part that counts).
func medianOf(n int, f func(i int) (float64, error)) (float64, error) {
	v := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		us, err := f(i)
		if err != nil {
			return 0, err
		}
		v = append(v, us)
	}
	return median(v), nil
}

// procSnap is the process-level resource reading the proc.* metrics are
// deltas of. Generator and system under test share the process, so the
// figures include both — identically on either side of a comparison.
type procSnap struct {
	cpu     time.Duration // user + system
	mallocs uint64
	gcPause time.Duration
	heapMB  float64
	// hostTicks and stealTicks are the machine's processor time so far, all
	// of it and the part the hypervisor gave to other guests while this one
	// had work to run, in clock ticks (0 where /proc/stat does not say).
	hostTicks, stealTicks uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs),
		heapMB:  float64(ms.HeapInuse) / (1 << 20),
	}
	// The first line of /proc/stat: "cpu user nice system idle iowait irq
	// softirq steal ...".
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		if f := strings.Fields(line); len(f) >= 9 && f[0] == "cpu" {
			for i, v := range f[1:9] {
				n, _ := strconv.ParseUint(v, 10, 64)
				p.hostTicks += n
				if i == 7 {
					p.stealTicks = n
				}
			}
		}
	}
	return p
}
