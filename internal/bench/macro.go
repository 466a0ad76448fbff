package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"veridb/internal/core"
	"veridb/internal/enclave"
	"veridb/internal/engine"
	"veridb/internal/plan"
	"veridb/internal/sql"
	"veridb/internal/storage"
	"veridb/internal/vmem"
	"veridb/internal/workload/tpcc"
	"veridb/internal/workload/tpch"
)

// TPCHConfig sizes the Fig. 12 experiment. TPC-H SF1 is 6 M lineitems and
// 200 k parts; the defaults keep the 30:1 ratio at 1/100 scale.
type TPCHConfig struct {
	Lineitems int
	Parts     int
	Seed      int64
}

func (c TPCHConfig) withDefaults() TPCHConfig {
	if c.Lineitems <= 0 {
		c.Lineitems = 60_000
	}
	if c.Parts <= 0 {
		c.Parts = c.Lineitems / 30
		if c.Parts < 10 {
			c.Parts = 10
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TPCHResult is one query measurement, split the way Fig. 12 stacks its
// bars: time spent in the verified scan leaves vs. everything above them.
type TPCHResult struct {
	Query     string
	Total     time.Duration
	ScanNodes time.Duration // time to drain the bare scan leaves
	Other     time.Duration // Total - ScanNodes
	Rows      int
}

// TPCHRun holds one configuration's measurements.
type TPCHRun struct {
	Config  string
	Results []TPCHResult
}

// tpchDB loads the dataset into a fresh database.
func tpchDB(cfg TPCHConfig, vc vmem.Config, js plan.JoinStrategy, d *tpch.Dataset) (*core.DB, error) {
	db, err := core.Open(core.Config{Seed: uint64(cfg.Seed), Memory: vc, Join: js})
	if err != nil {
		return nil, err
	}
	for _, ddl := range tpch.CreateTablesSQL() {
		if _, err := db.Execute(ddl); err != nil {
			return nil, err
		}
	}
	if err := tpch.Load(db.Store(), d); err != nil {
		return nil, err
	}
	return db, nil
}

// scanTime measures draining the bare verified scans a query's plan reads:
// the "Scan Nodes" component of Fig. 12.
func scanTime(db *core.DB, tables []string) (time.Duration, error) {
	var total time.Duration
	for _, name := range tables {
		t, err := db.Store().Table(name)
		if err != nil {
			return 0, err
		}
		scan := engine.NewTableScan(t, name)
		start := time.Now()
		if _, err := engine.Drain(scan, nil); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total, nil
}

// RunTPCH executes Q1, Q6 and both Q19 plans under one memory
// configuration and reports the Fig. 12 decomposition.
func RunTPCH(cfg TPCHConfig, vc vmem.Config, configName string) (*TPCHRun, error) {
	cfg = cfg.withDefaults()
	d := tpch.Generate(cfg.Lineitems, cfg.Parts, cfg.Seed)
	run := &TPCHRun{Config: configName}

	type job struct {
		name   string
		sql    string
		join   plan.JoinStrategy
		tables []string
	}
	jobs := []job{
		{"Q1", tpch.Q1SQL(), plan.JoinAuto, []string{"lineitem"}},
		{"Q6", tpch.Q6SQL(), plan.JoinAuto, []string{"lineitem"}},
		{"Q19 (MergeJoin)", tpch.Q19SQL(), plan.JoinMerge, []string{"lineitem", "part"}},
		{"Q19 (NestedLoopJoin)", tpch.Q19SQL(), plan.JoinNested, []string{"lineitem", "part"}},
	}
	for _, j := range jobs {
		db, err := tpchDB(cfg, vc, j.join, d)
		if err != nil {
			return nil, err
		}
		stmt, err := sql.Parse(j.sql)
		if err != nil {
			return nil, err
		}
		op, err := db.Plan(stmt.(*sql.Select))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rows, err := engine.Drain(op, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", j.name, err)
		}
		total := time.Since(start)
		scans, err := scanTime(db, j.tables)
		if err != nil {
			return nil, err
		}
		if scans > total {
			scans = total
		}
		run.Results = append(run.Results, TPCHResult{
			Query: j.name, Total: total, ScanNodes: scans, Other: total - scans,
			Rows: len(rows),
		})
		db.Close()
	}
	return run, nil
}

// TPCCConfig sizes the Fig. 13 experiment.
type TPCCConfig struct {
	Workload tpcc.Config
	// Duration each throughput point runs for.
	Duration time.Duration
	// VerifyEvery paces the background verifier (0 disables).
	VerifyEvery int
	// TableShards is the per-table hash-shard count (0 or 1: unsharded).
	TableShards int
	Seed        int64
}

func (c TPCCConfig) withDefaults() TPCCConfig {
	if c.Workload.Warehouses == 0 {
		c.Workload = tpcc.Config{Warehouses: 20, Customers: 10, Items: 200}
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TPCCPoint is one Fig. 13 data point.
type TPCCPoint struct {
	Config  string
	Clients int
	// Shards is the per-table shard count the point ran with (0: unsharded).
	Shards int
	TPS    float64
}

// RunTPCCPoint populates a fresh database and measures transaction
// throughput with the given client count.
func RunTPCCPoint(cfg TPCCConfig, vc vmem.Config, configName string, clients int) (TPCCPoint, error) {
	cfg = cfg.withDefaults()
	mem, err := vmem.New(enclave.NewForTest(uint64(cfg.Seed)), vc)
	if err != nil {
		return TPCCPoint{}, err
	}
	st := storage.NewStore(mem)
	if cfg.TableShards > 0 {
		st.SetDefaultShards(cfg.TableShards)
	}
	tables, err := tpcc.CreateTables(st)
	if err != nil {
		return TPCCPoint{}, err
	}
	if err := tpcc.Populate(tables, cfg.Workload, cfg.Seed); err != nil {
		return TPCCPoint{}, err
	}
	if cfg.VerifyEvery > 0 && vc.Mode == vmem.ModeRSWS {
		if err := mem.StartVerifier(cfg.VerifyEvery); err != nil {
			return TPCCPoint{}, err
		}
		defer mem.StopVerifier()
	}
	var done atomic.Bool
	var txns atomic.Int64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := tpcc.NewWorker(tables, cfg.Workload, c, cfg.Seed*1000+int64(c))
			for !done.Load() {
				if err := w.Run(); err != nil {
					errCh <- err
					return
				}
				txns.Add(1)
			}
		}(c)
	}
	time.Sleep(cfg.Duration)
	done.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		return TPCCPoint{}, err
	default:
	}
	if err := mem.Alarm(); err != nil {
		return TPCCPoint{}, fmt.Errorf("bench: verification alarm in clean TPC-C run: %w", err)
	}
	return TPCCPoint{
		Config:  configName,
		Clients: clients,
		Shards:  cfg.TableShards,
		TPS:     float64(txns.Load()) / cfg.Duration.Seconds(),
	}, nil
}

// ShardScalingConfig sizes the TableShards sweep riding along Fig. 13:
// same TPC-C mix, fixed RSWS layout, varying only the per-table shard
// count so the remaining contention is the table latch the shards split.
type ShardScalingConfig struct {
	TPCC    TPCCConfig
	Vmem    vmem.Config
	Shards  []int
	Clients []int
}

func (c ShardScalingConfig) withDefaults() ShardScalingConfig {
	c.TPCC = c.TPCC.withDefaults()
	if c.Vmem.Partitions == 0 {
		c.Vmem.Partitions = 16
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 4, 16}
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 4, 8}
	}
	return c
}

// ShardScalingRun is the BENCH_shard.json payload.
type ShardScalingRun struct {
	Warehouses int
	Partitions int
	DurationMS int64
	Points     []TPCCPoint
}

// RunShardScaling measures TPC-C throughput across per-table shard counts.
func RunShardScaling(cfg ShardScalingConfig) (*ShardScalingRun, error) {
	cfg = cfg.withDefaults()
	run := &ShardScalingRun{
		Warehouses: cfg.TPCC.Workload.Warehouses,
		Partitions: cfg.Vmem.Partitions,
		DurationMS: cfg.TPCC.Duration.Milliseconds(),
	}
	for _, shards := range cfg.Shards {
		tc := cfg.TPCC
		tc.TableShards = shards
		name := fmt.Sprintf("%d shard(s)", shards)
		for _, clients := range cfg.Clients {
			pt, err := RunTPCCPoint(tc, cfg.Vmem, name, clients)
			if err != nil {
				return nil, fmt.Errorf("bench: shard sweep %s × %d clients: %w", name, clients, err)
			}
			run.Points = append(run.Points, pt)
		}
	}
	return run, nil
}

// Fig13Configs returns the paper's RSWS-count series.
type Fig13Config struct {
	Name string
	Vmem vmem.Config
}

// Fig13Series enumerates the Fig. 13 configurations.
func Fig13Series() []Fig13Config {
	return []Fig13Config{
		{Name: "No RSWS updates", Vmem: vmem.Config{Mode: vmem.ModeBaseline}},
		{Name: "1024 RSWSs", Vmem: vmem.Config{Partitions: 1024}},
		{Name: "128 RSWSs", Vmem: vmem.Config{Partitions: 128}},
		{Name: "16 RSWSs", Vmem: vmem.Config{Partitions: 16}},
		{Name: "4 RSWSs", Vmem: vmem.Config{Partitions: 4}},
		{Name: "1 RSWS", Vmem: vmem.Config{Partitions: 1}},
	}
}
