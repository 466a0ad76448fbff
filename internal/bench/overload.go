package bench

// Overload-protection benchmark: the proof-under-load for deadline
// propagation, memory budgets and graceful shedding. An unloaded phase
// measures the p99 of authenticated point queries through the full
// portal path; the loaded phase then drives 4x the admission capacity
// (plus pathological workers: huge sorts, abandoned snapshot pins, slow
// LIMITed readers) against an instance with a bounded admission queue,
// a process memory budget, statement deadlines and a session idle
// reaper. Every delivered response is MAC-verified; every shed request
// must carry a typed overload refusal with a positive RetryAfter hint.
// After the storm drains, goroutine count, tracked memory (net of the
// response cache) and snapshot pins must return to baseline.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veridb/internal/client"
	"veridb/internal/core"
	"veridb/internal/govern"
)

// OverloadConfig sizes the overload benchmark.
type OverloadConfig struct {
	// Rows seeds the scanned table.
	Rows int
	// Duration is the loaded-phase storm length.
	Duration time.Duration
	// Workers is the point-query worker count (offered load; default 8,
	// 4x the default MaxConcurrent of 2).
	Workers int
	// MaxConcurrent / QueueDepth shape the admission gate under test.
	MaxConcurrent int
	QueueDepth    int
	Seed          uint64
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Rows == 0 {
		c.Rows = 2000
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// OverloadRun is the BENCH_overload.json payload.
type OverloadRun struct {
	Rows          int   `json:"rows"`
	Workers       int   `json:"workers"`
	MaxConcurrent int   `json:"max_concurrent"`
	QueueDepth    int   `json:"queue_depth"`
	DurationMS    int64 `json:"duration_ms"`

	// UnloadedP99 / LoadedP99 are point-query latencies through the
	// authenticated portal path, one worker vs. the full storm (non-shed
	// responses only). P99Ratio is their quotient (target: <= 3).
	UnloadedP99US float64 `json:"unloaded_p99_us"`
	LoadedP99US   float64 `json:"loaded_p99_us"`
	P99Ratio      float64 `json:"p99_ratio"`

	// Delivered counts MAC-verified non-shed responses (successes and
	// authenticated execution errors); Shed counts typed overload
	// refusals, every one carrying a positive RetryAfter hint.
	Delivered        int64 `json:"delivered"`
	Shed             int64 `json:"shed"`
	AllShedRetryable bool  `json:"all_shed_retryable"`
	// Timeouts counts statements cancelled by the statement deadline,
	// SessionsExpired abandoned pins the idle reaper released, and
	// BudgetDenied reservations refused by the memory budget — each
	// pathological worker must actually trip its protection.
	Timeouts        int64 `json:"timeouts"`
	SessionsExpired int64 `json:"sessions_expired"`
	BudgetDenied    int64 `json:"budget_denied"`

	// MemHighWater is the budget's peak tracked bytes during the storm.
	MemHighWater int64 `json:"mem_high_water"`
	// BaselineMem is the post-seed tracked memory floor (version-chain
	// images of the seeded rows) the leak check compares against.
	BaselineMem int64 `json:"baseline_mem"`
	// Post-drain leak checks: tracked memory net of the response cache
	// and the seed floor (must be 0), live snapshot pins, and goroutines
	// vs. the pre-open baseline.
	PostDrainMemUsed      int64 `json:"post_drain_mem_used"`
	PostDrainPins         int   `json:"post_drain_pins"`
	BaselineGoroutines    int   `json:"baseline_goroutines"`
	PostCloseGoroutines   int   `json:"post_close_goroutines"`
	ResponseCacheBytes    int64 `json:"response_cache_bytes"`
	ResponseCacheEntries  int   `json:"response_cache_entries"`
	ResponseCacheEvicted  int64 `json:"response_cache_evicted"`
	AdmissionAdmitted     int64 `json:"admission_admitted"`
	AdmissionQueuedOnWait int64 `json:"admission_queued"`
}

// overloadSeed opens a database, seeds the kv table and provisions n
// client credentials named w0..w(n-1). The config mirrors the public
// package's defaults (16 RSWS partitions, 256-row batches, 128-entry plan
// cache) so the measured path matches what veridb.Open serves.
func overloadSeed(cfg OverloadConfig, ccfg core.Config, nClients int) (*core.DB, []*client.Client, error) {
	ccfg.Seed = cfg.Seed
	ccfg.Memory.Partitions = 16
	ccfg.PlanCacheSize = 128
	db, err := core.Open(ccfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := db.Execute(`CREATE TABLE kv (id INT PRIMARY KEY, val INT)`); err != nil {
		db.Close()
		return nil, nil, err
	}
	for i := 0; i < cfg.Rows; i++ {
		if _, err := db.Execute(fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d)`, i, (i*7919)%cfg.Rows)); err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	clients := make([]*client.Client, nClients)
	for i := range clients {
		id := fmt.Sprintf("w%d", i)
		key := []byte(fmt.Sprintf("overload-key-%02d", i))
		db.Enclave().ProvisionMACKey(id, key)
		clients[i] = client.New(id, key)
	}
	return db, clients, nil
}

// overloadPoint issues one authenticated point query and verifies the
// response MAC. It returns the latency, whether the response was a shed
// refusal (with its typed error), and any protocol failure.
func overloadPoint(db *core.DB, c *client.Client, id int) (time.Duration, *govern.OverloadedError, error) {
	req := c.NewRequest(fmt.Sprintf(`SELECT val FROM kv WHERE id = %d`, id))
	start := time.Now()
	resp, err := db.Portal().Serve(req)
	lat := time.Since(start)
	if err != nil {
		return 0, nil, fmt.Errorf("bench: portal refused authenticated request: %w", err)
	}
	verr := c.VerifyResponse(req, resp)
	if verr == nil {
		return lat, nil, nil
	}
	var oe *govern.OverloadedError
	if errors.As(verr, &oe) {
		return lat, oe, nil
	}
	var srvErr *client.ServerError
	if errors.As(verr, &srvErr) {
		// Authenticated execution error (deadline, budget, expiry):
		// delivered and MAC-verified, just not a success.
		return lat, nil, nil
	}
	return 0, nil, fmt.Errorf("bench: response failed verification: %w", verr)
}

// unloadedP99 measures the point-query p99 with one worker and no
// governors — the denominator for the loaded-phase latency bound.
func unloadedP99(cfg OverloadConfig) (time.Duration, error) {
	db, clients, err := overloadSeed(cfg, core.Config{}, 1)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	const samples = 1000
	lats := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		lat, oe, err := overloadPoint(db, clients[0], i%cfg.Rows)
		if err != nil {
			return 0, err
		}
		if oe != nil {
			return 0, fmt.Errorf("bench: shed with no admission gate configured")
		}
		lats = append(lats, lat)
	}
	_, p99 := latencyPercentiles(lats)
	return p99, nil
}

// RunOverload drives the storm and returns the measured run. Violations
// of the protection invariants (unverifiable responses, sheds without a
// retry hint, leaked pins/memory/goroutines) are errors, not data.
func RunOverload(cfg OverloadConfig) (*OverloadRun, error) {
	cfg = cfg.withDefaults()
	basep99, err := unloadedP99(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: unloaded phase: %w", err)
	}
	// Queued statements wait at most ~one unloaded p99 before shedding:
	// the bounded-latency contract (non-shed p99 <= 3x unloaded) is an
	// admission-policy property, so the bench sets the policy to match.
	maxWait := basep99
	if maxWait < 100*time.Microsecond {
		maxWait = 100 * time.Microsecond
	}
	if maxWait > 50*time.Millisecond {
		maxWait = 50 * time.Millisecond
	}

	runtime.GC()
	baselineG := runtime.NumGoroutine()

	// +3 pathological clients: sorter, abandoner, slow reader.
	nClients := cfg.Workers + 3
	db, clients, err := overloadSeed(cfg, core.Config{
		StatementTimeout:        200 * time.Millisecond,
		MemBudget:               64 << 20,
		MaxConcurrentStatements: cfg.MaxConcurrent,
		AdmissionQueueDepth:     cfg.QueueDepth,
		AdmissionMaxWait:        maxWait,
		SessionMaxIdle:          50 * time.Millisecond,
		// A tight cache bound exercises byte eviction continuously and
		// keeps GC pauses (heap churn) out of the latency tail.
		ResponseCacheBytes: 2 << 20,
	}, nClients)
	if err != nil {
		return nil, fmt.Errorf("bench: loaded phase: %w", err)
	}
	// The seeded rows' version-chain images are tracked, legitimate,
	// persistent memory: the leak check is against this floor, not zero.
	baselineMem := db.GovernStats().MemUsed

	var (
		done      atomic.Bool
		delivered atomic.Int64
		shed      atomic.Int64
		badShed   atomic.Int64
		timeouts  atomic.Int64
		latMu     sync.Mutex
		lats      []time.Duration
	)
	errCh := make(chan error, nClients)
	var wg sync.WaitGroup

	// Point-query storm: Workers clients issuing back to back, honoring
	// the RetryAfter hint when shed (the protocol's backpressure).
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			for i := w; !done.Load(); i += 13 {
				lat, oe, err := overloadPoint(db, c, i%cfg.Rows)
				if err != nil {
					errCh <- err
					return
				}
				if oe != nil {
					shed.Add(1)
					if oe.RetryAfter <= 0 {
						badShed.Add(1)
					}
					sleep := oe.RetryAfter
					if sleep > 20*time.Millisecond {
						sleep = 20 * time.Millisecond
					}
					time.Sleep(sleep)
					continue
				}
				delivered.Add(1)
				latMu.Lock()
				lats = append(lats, lat)
				latMu.Unlock()
			}
		}(w)
	}

	pathological := func(c *client.Client, query func(i int) string, onServerErr func(msg string)) {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			req := c.NewRequest(query(i))
			resp, err := db.Portal().Serve(req)
			if err != nil {
				errCh <- fmt.Errorf("bench: portal refused authenticated request: %w", err)
				return
			}
			verr := c.VerifyResponse(req, resp)
			if verr == nil {
				continue
			}
			var oe *govern.OverloadedError
			if errors.As(verr, &oe) {
				shed.Add(1)
				if oe.RetryAfter <= 0 {
					badShed.Add(1)
				}
				time.Sleep(oe.RetryAfter)
				continue
			}
			var srvErr *client.ServerError
			if errors.As(verr, &srvErr) {
				onServerErr(srvErr.Msg)
				continue
			}
			errCh <- fmt.Errorf("bench: response failed verification: %w", verr)
			return
		}
	}

	// Sorter: full-table ORDER BY under a tiny authenticated per-request
	// deadline — the materialisation races the deadline and loses, proving
	// cancellation releases the sort's reservation and latches mid-flight.
	sortC := clients[cfg.Workers]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			req := sortC.NewRequestTimeout(`SELECT * FROM kv ORDER BY val`, time.Millisecond)
			resp, err := db.Portal().Serve(req)
			if err != nil {
				errCh <- fmt.Errorf("bench: portal refused authenticated request: %w", err)
				return
			}
			verr := sortC.VerifyResponse(req, resp)
			if verr == nil {
				continue
			}
			var oe *govern.OverloadedError
			if errors.As(verr, &oe) {
				shed.Add(1)
				if oe.RetryAfter <= 0 {
					badShed.Add(1)
				}
				time.Sleep(oe.RetryAfter)
				continue
			}
			var srvErr *client.ServerError
			if !errors.As(verr, &srvErr) {
				errCh <- fmt.Errorf("bench: response failed verification: %w", verr)
				return
			}
			if strings.Contains(srvErr.Msg, "deadline") || strings.Contains(srvErr.Msg, "cancel") {
				timeouts.Add(1)
			}
		}
	}()
	// Abandoner: pins snapshots and never commits; the idle reaper must
	// release them (the expiry error on the next pin attempt is expected).
	wg.Add(1)
	go pathological(clients[cfg.Workers+1], func(int) string {
		return `BEGIN SNAPSHOT`
	}, func(msg string) {
		time.Sleep(20 * time.Millisecond) // let the reaper catch the pin
	})
	// Slow reader: LIMITed range scans with tiny client deadlines.
	slowC := clients[cfg.Workers+2]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			req := slowC.NewRequestTimeout(`SELECT id FROM kv WHERE val < 1000 LIMIT 64`, 100*time.Millisecond)
			resp, err := db.Portal().Serve(req)
			if err != nil {
				errCh <- fmt.Errorf("bench: portal refused authenticated request: %w", err)
				return
			}
			if verr := slowC.VerifyResponse(req, resp); verr != nil {
				var srvErr *client.ServerError
				if !errors.As(verr, &srvErr) {
					errCh <- fmt.Errorf("bench: response failed verification: %w", verr)
					return
				}
				var oe *govern.OverloadedError
				if errors.As(verr, &oe) {
					shed.Add(1)
					if oe.RetryAfter <= 0 {
						badShed.Add(1)
					}
					time.Sleep(oe.RetryAfter)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(cfg.Duration)
	done.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		db.Close()
		return nil, err
	default:
	}

	// Drain: admission must empty, abandoned pins must expire, and the
	// budget must return to exactly the response-cache residue.
	var gs core.GovernStats
	deadline := time.Now().Add(3 * time.Second)
	for {
		gs = db.GovernStats()
		if gs.Admission.InFlight == 0 && gs.Admission.Waiting == 0 &&
			gs.SnapshotPins == 0 && gs.MemUsed == gs.ResponseCache.Bytes+baselineMem {
			break
		}
		if time.Now().After(deadline) {
			db.Close()
			return nil, fmt.Errorf("bench: storm did not drain: inflight=%d waiting=%d pins=%d mem=%d cache=%d baseline=%d",
				gs.Admission.InFlight, gs.Admission.Waiting, gs.SnapshotPins,
				gs.MemUsed, gs.ResponseCache.Bytes, baselineMem)
		}
		time.Sleep(10 * time.Millisecond)
	}
	db.Close()

	// Goroutines: everything the storm spawned (merge producers, reaper,
	// verifier) must be gone after Close.
	var postG int
	for i := 0; ; i++ {
		runtime.GC()
		postG = runtime.NumGoroutine()
		if postG <= baselineG+2 || i >= 50 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if postG > baselineG+2 {
		return nil, fmt.Errorf("bench: goroutine leak: baseline %d, after close %d", baselineG, postG)
	}
	if badShed.Load() > 0 {
		return nil, fmt.Errorf("bench: %d shed responses lacked a RetryAfter hint", badShed.Load())
	}

	_, loadedP99 := latencyPercentiles(lats)
	run := &OverloadRun{
		Rows:          cfg.Rows,
		Workers:       cfg.Workers,
		MaxConcurrent: cfg.MaxConcurrent,
		QueueDepth:    cfg.QueueDepth,
		DurationMS:    cfg.Duration.Milliseconds(),

		UnloadedP99US: float64(basep99.Nanoseconds()) / 1e3,
		LoadedP99US:   float64(loadedP99.Nanoseconds()) / 1e3,

		Delivered:        delivered.Load(),
		Shed:             shed.Load(),
		AllShedRetryable: badShed.Load() == 0,
		Timeouts:         timeouts.Load(),
		SessionsExpired:  gs.SessionsExpired,
		BudgetDenied:     gs.MemDenied,

		MemHighWater:          gs.MemHighWater,
		BaselineMem:           baselineMem,
		PostDrainMemUsed:      gs.MemUsed - gs.ResponseCache.Bytes - baselineMem,
		PostDrainPins:         gs.SnapshotPins,
		BaselineGoroutines:    baselineG,
		PostCloseGoroutines:   postG,
		ResponseCacheBytes:    gs.ResponseCache.Bytes,
		ResponseCacheEntries:  gs.ResponseCache.Entries,
		ResponseCacheEvicted:  gs.ResponseCache.Evictions,
		AdmissionAdmitted:     gs.Admission.Admitted,
		AdmissionQueuedOnWait: gs.Admission.Queued,
	}
	if basep99 > 0 {
		run.P99Ratio = float64(loadedP99) / float64(basep99)
	}
	return run, nil
}
