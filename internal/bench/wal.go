// Durability benchmark: what the authenticated WAL costs on the write
// path and what recovery costs at restart. Each configuration runs the
// same insert workload three ways — in-memory (the paper's baseline),
// WAL-only durability (append + fsync per acked statement), and WAL +
// periodic checkpoints — then reopens the durable directory and times
// recovery (manifest/segment load, WAL tail replay, VerifyAll admission
// gate). The interesting numbers: the per-statement price of the
// fsync'd, MACed append, how checkpointing bounds recovery time, and
// recovery throughput in statements per second.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"veridb/internal/core"
)

// WALBenchConfig sizes the durability experiment.
type WALBenchConfig struct {
	Statements      int    // workload length per configuration
	CheckpointEvery int    // checkpoint interval for the checkpointed run
	Seed            uint64 // enclave PRF seed (determinism)
	Dir             string // scratch directory (empty = os.MkdirTemp)
}

func (c WALBenchConfig) withDefaults() WALBenchConfig {
	if c.Statements <= 0 {
		c.Statements = 2000
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// WALBenchMode is one configuration's measurement.
type WALBenchMode struct {
	Mode string `json:"mode"` // memory | wal | wal+checkpoint
	// AppendThroughput is acked statements per second during the
	// workload (for durable modes, each ack paid a MACed append+fsync).
	AppendThroughput float64 `json:"append_stmts_per_sec"`
	// MeanAppend is the mean wall time per acked statement.
	MeanAppend time.Duration `json:"mean_append_ns"`
	// P50Append / P99Append are per-statement ack latency percentiles.
	P50Append time.Duration `json:"p50_append_ns"`
	P99Append time.Duration `json:"p99_append_ns"`
	// Recovery is the full reopen latency: Open returning a verified
	// (or quarantined) image. Zero for the in-memory mode.
	Recovery time.Duration `json:"recovery_ns"`
	// RecoveredStatements is the WAL sequence number after recovery —
	// proof the whole workload survived.
	RecoveredStatements uint64 `json:"recovered_statements"`
	// WALBytes is the log size at shutdown (post-rotation tail for the
	// checkpointed mode).
	WALBytes int64 `json:"wal_bytes"`
}

// WALConcurrencyPoint is one row of the concurrent-writer sweep.
// Latencies are per-statement ack times across every client; each ack
// waited for its commit group's fsync — throughput gains come from
// sharing the fsync, never from acking early.
type WALConcurrencyPoint struct {
	Clients    int           `json:"clients"`
	Throughput float64       `json:"append_stmts_per_sec"`
	MeanAppend time.Duration `json:"mean_append_ns"`
	P50Append  time.Duration `json:"p50_append_ns"`
	P99Append  time.Duration `json:"p99_append_ns"`
}

// WALBenchRun is the whole experiment, shaped for BENCH_wal.json.
type WALBenchRun struct {
	Statements      int            `json:"statements"`
	CheckpointEvery int            `json:"checkpoint_every"`
	Modes           []WALBenchMode `json:"modes"`
	// DurabilityOverhead is wal append throughput / memory throughput —
	// the fraction of baseline write speed that survives the fsync'd
	// authenticated append.
	DurabilityOverhead float64 `json:"wal_vs_memory_throughput_ratio"`
	// ConcurrencySweep runs 1/2/4/8/16 concurrent writers over a shared
	// durable database.
	ConcurrencySweep []WALConcurrencyPoint `json:"concurrency_sweep"`
}

// RunWALBench executes the experiment.
func RunWALBench(cfg WALBenchConfig) (*WALBenchRun, error) {
	cfg = cfg.withDefaults()
	scratch := cfg.Dir
	if scratch == "" {
		var err error
		scratch, err = os.MkdirTemp("", "veridb-walbench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(scratch)
	}
	run := &WALBenchRun{Statements: cfg.Statements, CheckpointEvery: cfg.CheckpointEvery}
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"memory", core.Config{Seed: cfg.Seed}},
		{"wal", core.Config{Seed: cfg.Seed, DataDir: filepath.Join(scratch, "wal")}},
		{"wal+checkpoint", core.Config{
			Seed:            cfg.Seed,
			DataDir:         filepath.Join(scratch, "ckpt"),
			CheckpointEvery: cfg.CheckpointEvery,
		}},
	}
	for _, m := range modes {
		mode, err := runWALMode(m.name, m.cfg, cfg.Statements)
		if err != nil {
			return nil, fmt.Errorf("bench: wal mode %s: %w", m.name, err)
		}
		run.Modes = append(run.Modes, *mode)
	}
	if run.Modes[0].AppendThroughput > 0 {
		run.DurabilityOverhead = run.Modes[1].AppendThroughput / run.Modes[0].AppendThroughput
	}
	for _, clients := range []int{1, 2, 4, 8, 16} {
		dir := filepath.Join(scratch, fmt.Sprintf("sweep-%d", clients))
		pt, err := runWALConcurrent(clients, cfg.Statements, cfg.Seed, dir)
		if err != nil {
			return nil, fmt.Errorf("bench: wal sweep clients=%d: %w", clients, err)
		}
		run.ConcurrencySweep = append(run.ConcurrencySweep, *pt)
	}
	return run, nil
}

// runWALConcurrent drives `clients` goroutines of inserts over disjoint
// key ranges against one durable database and reports aggregate
// throughput and per-ack latency percentiles.
func runWALConcurrent(clients, statements int, seed uint64, dir string) (*WALConcurrencyPoint, error) {
	db, err := core.Open(core.Config{Seed: seed, DataDir: dir})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if _, err := db.Execute(`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`); err != nil {
		return nil, err
	}
	per := statements / clients
	if per < 1 {
		per = 1
	}
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats[w] = make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				k := w*per + i
				stmt := fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'value-%08d')`, k, k)
				t0 := time.Now()
				if _, err := db.Execute(stmt); err != nil {
					errs[w] = err
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []time.Duration
	var sum time.Duration
	for _, ls := range lats {
		all = append(all, ls...)
		for _, l := range ls {
			sum += l
		}
	}
	p50, p99 := latencyPercentiles(all)
	return &WALConcurrencyPoint{
		Clients:    clients,
		Throughput: float64(len(all)) / elapsed.Seconds(),
		MeanAppend: sum / time.Duration(len(all)),
		P50Append:  p50,
		P99Append:  p99,
	}, nil
}

// latencyPercentiles returns the p50 and p99 of a sample set (zeroes for
// an empty set).
func latencyPercentiles(samples []time.Duration) (p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return at(0.50), at(0.99)
}

func runWALMode(name string, c core.Config, statements int) (*WALBenchMode, error) {
	db, err := core.Open(c)
	if err != nil {
		return nil, err
	}
	if _, err := db.Execute(`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`); err != nil {
		db.Close()
		return nil, err
	}
	lats := make([]time.Duration, 0, statements)
	start := time.Now()
	for i := 0; i < statements; i++ {
		stmt := fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'value-%08d')`, i, i)
		t0 := time.Now()
		if _, err := db.Execute(stmt); err != nil {
			db.Close()
			return nil, err
		}
		lats = append(lats, time.Since(t0))
	}
	elapsed := time.Since(start)
	p50, p99 := latencyPercentiles(lats)
	mode := &WALBenchMode{
		Mode:             name,
		AppendThroughput: float64(statements) / elapsed.Seconds(),
		MeanAppend:       elapsed / time.Duration(statements),
		P50Append:        p50,
		P99Append:        p99,
	}
	if c.DataDir != "" {
		if path := db.WALPath(); path != "" {
			if fi, err := os.Stat(path); err == nil {
				mode.WALBytes = fi.Size()
			}
		}
	}
	db.Close()

	if c.DataDir != "" {
		recoverStart := time.Now()
		rdb, err := core.Open(c)
		if err != nil {
			return nil, err
		}
		mode.Recovery = time.Since(recoverStart)
		if qerr := rdb.QuarantineError(); qerr != nil {
			rdb.Close()
			return nil, fmt.Errorf("recovery quarantined: %w", qerr)
		}
		mode.RecoveredStatements = rdb.WALNextSeq()
		rdb.Close()
	}
	return mode, nil
}
