package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one set of inputs the benchmark runs. why is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	// setup opens a fresh instance under dir: open + schema + load + first
	// VerifyAll. Its wall time is setup_s.
	setup func(o *options, seed int64, dir string) (instance, error)
}

var workloads = []workload{
	{name: "wire_point_read", setup: setupPointRead},
	{name: "wire_write_durable", setup: setupWriteDurable},
	{name: "wire_scan_analytic", setup: setupScanAnalytic},
	{name: "storage_tpcc", setup: setupTPCC},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// counters is the set of exported counters the per-layer metrics are
// deltas of: vmem.Stats, plan.CacheStats and GovernStats, read through the
// instance's public accessors.
type counters struct {
	ops, prfEvals, scans, fastScans, pagesAlive uint64
	planHits, planMisses                        uint64
	cacheEvictions, cacheBytes                  int64
	admitted, shed                              int64
}

// instance is one set-up database with its generators.
type instance interface {
	// generators returns the closed-loop clients, one per connection.
	generators() []generator
	counters() counters
	// verifyAll runs a full verification pass; an alarm is a failed check.
	verifyAll() error
	// ladder replays the workload's statements single-goroutine through
	// successively deeper entry points and records the per-layer metrics.
	ladder(o *options, seed int64, dir string, m *metrics) error
	// afterWarmup and postRun run the workload's own correctness checks
	// with nothing in flight — between the warm-up and the measured run, and
	// after the last run — recording what they measure on the way. traced
	// says the traced pass ran: only then does a run have the time for a
	// check whose cost grows with the number of operations.
	afterWarmup(dir string, m *metrics) error
	postRun(dir string, m *metrics, traced bool) error
	// close stops everything the instance started and waits for it.
	close() error
}

// tracedRunCap bounds the traced interval: spans stay in memory.
const tracedRunCap = 10 * time.Second

// maxSetups caps the repeats of a cheap set-up; see sizes.setups.
const maxSetups = 25

// runWorkload is one full pass over one workload: set-up (timed
// o.sz.setups times, the last instance is kept), warm-up, the untraced
// measured run, and — with o.trace — the traced run, the ladder and the
// counter-derived per-layer metrics; then the post-run checks, teardown
// and the goroutine check. Every failed check counts as a failed attempt.
func runWorkload(o *options, w *workload, seed int64, baselineGoroutines int) *result {
	r := &result{Workload: w.name, Samples: map[string]int{}}
	e2e, pl := newMetrics(endToEnd), newMetrics(perLayer)
	checkFailed := func(what string, err error) {
		r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", what, err))
		r.Attempted++
		r.Failed++
	}
	finish := func() *result {
		r.Correct = r.Failed == 0 && r.Attempted > 0
		if r.Attempted > 0 {
			r.FailedShare = float64(r.Failed) / float64(r.Attempted)
		}
		r.EndToEnd = e2e.export()
		if o.trace {
			r.PerLayer = pl.export()
		}
		return r
	}

	// Start from a collected heap: in one process, the garbage of the
	// workload before (TPC-C leaves a gigabyte) would be this one's to mark.
	runtime.GC()
	var inst instance
	var dir string
	var setupS []float64
	setupStart := time.Now()
	for i := 0; i < o.sz.setups || (i < maxSetups && time.Since(setupStart) < o.sz.setupBudget); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				checkFailed("closing a set-up instance", err)
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(o.tmp, "work", fmt.Sprintf("%s-%d-%d", w.name, seed, time.Now().UnixNano()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			checkFailed("set-up", err)
			return finish()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(o, seed, dir); err != nil {
			checkFailed("set-up", err)
			return finish()
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(dir)
	e2e.set("setup_s", median(setupS))
	r.Samples["setup_s"] = len(setupS)

	gens := inst.generators()
	drive(gens, o.warmup, nil)
	if err := inst.afterWarmup(dir, pl); err != nil {
		checkFailed("check after warm-up", err)
	}
	runtime.GC() // start every measured run from a collected heap
	c0, p0 := inst.counters(), readProc()
	un := drive(gens, o.duration, nil)
	c1, p1 := inst.counters(), readProc()
	r.Attempted += un.attempted
	r.Failed += un.failed
	if un.firstErr != nil {
		r.Errors = append(r.Errors, un.firstErr.Error())
	}
	e2e.set("throughput_ops_s", un.throughput())
	e2e.set("latency_p50_us", un.latency(0.50))
	e2e.set("latency_p95_us", un.latency(0.95))
	for _, w := range un.windows {
		r.WindowOps = append(r.WindowOps, len(w))
	}
	if ticks := p1.hostTicks - p0.hostTicks; ticks > 0 {
		r.StealShare = float64(p1.stealTicks-p0.stealTicks) / float64(ticks)
	}
	r.Samples["latency_p50_us"] = len(un.latUS)
	r.Samples["latency_p95_us"] = len(un.latUS)

	if o.trace {
		totalPRFPerOp := counterMetrics(pl, r, un, c0, c1, p0, p1)
		epoch := time.Now()
		bufs := make([]*spanBuf, len(gens))
		for i := range bufs {
			bufs[i] = newSpanBuf(i, epoch)
		}
		tr := drive(gens, min(o.duration, tracedRunCap), bufs)
		r.Attempted += tr.attempted
		r.Failed += tr.failed
		if tr.firstErr != nil {
			r.Errors = append(r.Errors, "traced run: "+tr.firstErr.Error())
		}
		pl.set("trace.overhead_share", recorderShare(bufs, tr.seconds))
		spanMetrics(pl, r, bufs)
		if path, n, err := writeSpans(o.traceDir, w.name, bufs); err != nil {
			checkFailed("writing spans", err)
		} else {
			r.SpanFile = fmt.Sprintf("%s (%d spans)", path, n)
		}
		bufs = nil
		if err := inst.ladder(o, seed, dir, pl); err != nil {
			checkFailed("ladder", err)
		}
		// What the measured run evaluated beyond the foreground's own
		// count per operation is the background verifier's.
		if totalPRFPerOp > 0 {
			pl.set("vmem.verifier_prf_share", max(0, 1-pl.get("vmem.prf_evals_per_op")/totalPRFPerOp))
		}
	}

	// Post-run checks, with nothing in flight.
	v0 := inst.counters()
	t0 := time.Now()
	if err := inst.verifyAll(); err != nil {
		checkFailed("VerifyAll after the run raised an alarm", err)
	}
	pl.set("vmem.verify_all_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	v1 := inst.counters()
	if d := (v1.scans - v0.scans) + (v1.fastScans - v0.fastScans); d > 0 {
		pl.set("vmem.fast_scan_ratio", float64(v1.fastScans-v0.fastScans)/float64(d))
	}
	if err := inst.postRun(dir, pl, o.trace); err != nil {
		checkFailed("post-run check", err)
	}
	if err := inst.close(); err != nil {
		checkFailed("teardown", err)
	}
	if n, ok := goroutinesSettle(baselineGoroutines); !ok {
		checkFailed("goroutine check", fmt.Errorf("%d goroutines after drain, %d before the run", n, baselineGoroutines))
	}
	return finish()
}

// goroutinesSettle waits for the goroutine count to return to baseline.
func goroutinesSettle(baseline int) (int, bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// counterMetrics derives the per-layer metrics that are deltas of exported
// counters over the untraced measured run, and returns the run's PRF
// evaluations per operation (foreground and verifier together).
func counterMetrics(pl *metrics, r *result, un *runStats, c0, c1 counters, p0, p1 procSnap) float64 {
	ops := float64(un.attempted - un.failed)
	if ops == 0 {
		return 0
	}
	pl.set("portal.cache_evictions_per_kop", float64(c1.cacheEvictions-c0.cacheEvictions)/ops*1000)
	pl.set("portal.cache_bytes", float64(c1.cacheBytes))
	if att := float64(c1.admitted-c0.admitted) + float64(c1.shed-c0.shed); att > 0 {
		pl.set("govern.shed_share", float64(c1.shed-c0.shed)/att)
	}
	if look := float64(c1.planHits-c0.planHits) + float64(c1.planMisses-c0.planMisses); look > 0 {
		pl.set("plan.cache_hit_ratio", float64(c1.planHits-c0.planHits)/look)
	}
	// The tamper-detection window under load: how long the background
	// verifier, at the page rate it sustained during the run, takes to
	// cover every page once. (Whole epoch rotations are too few in a run
	// of seconds to divide by.)
	if scanned := float64(c1.scans-c0.scans) + float64(c1.fastScans-c0.fastScans); scanned > 0 {
		pl.set("vmem.epoch_rotation_ms", float64(c1.pagesAlive)/(scanned/un.seconds)*1000)
	}
	pl.set("proc.cpu_us_per_op", float64((p1.cpu-p0.cpu).Nanoseconds())/1e3/ops)
	pl.set("proc.allocs_per_op", float64(p1.mallocs-p0.mallocs)/ops)
	pl.set("proc.heap_inuse_mb", p1.heapMB)
	pl.set("proc.gc_pause_ms", float64((p1.gcPause-p0.gcPause).Nanoseconds())/1e6)
	pl.set("host.steal_share", r.StealShare)
	pl.set("tail.latency_p99_us", quantile(un.latUS, 0.99))
	pl.set("tail.latency_p999_us", quantile(un.latUS, 0.999))
	r.Samples["tail.latency_p99_us"] = len(un.latUS)
	r.Samples["tail.latency_p999_us"] = len(un.latUS)
	return float64(c1.prfEvals-c0.prfEvals) / ops
}

// spanMetrics derives the per-statement-type and per-transaction-type
// medians from the traced run's root spans.
func spanMetrics(pl *metrics, r *result, bufs []*spanBuf) {
	med, cnt := spanMedians(bufs)
	for span, name := range map[string]string{
		spanOp + "update":      "stmt.update_p50_us",
		spanOp + "insert":      "stmt.insert_p50_us",
		spanOp + "delete":      "stmt.delete_p50_us",
		spanOp + "neworder":    "tpcc.neworder_p50_us",
		spanOp + "payment":     "tpcc.payment_p50_us",
		spanOp + "orderstatus": "tpcc.orderstatus_p50_us",
		spanWait:               "trace.send_wait_p50_us",
	} {
		if n := cnt[span]; n > 0 {
			pl.set(name, med[span])
			r.Samples[name] = n
		}
	}
}
