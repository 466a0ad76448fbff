package bench

import (
	"fmt"
	"time"

	"veridb/internal/core"
	"veridb/internal/engine"
	"veridb/internal/record"
	"veridb/internal/sql"
)

// ExecBatchConfig sizes the batch-capacity sweep: the same query set runs
// through the same operators at each capacity over the same verified
// table, so the only moving part is how many rows each operator-to-operator
// call hands over.
type ExecBatchConfig struct {
	// Rows in the fact table (default 30 000).
	Rows int
	// Sizes is the batch-capacity sweep (default 1, 64, 256; 1 hands over
	// one row per call).
	Sizes []int
	// Reps per measurement; the minimum is kept (default 3).
	Reps int
	Seed int64
}

func (c ExecBatchConfig) withDefaults() ExecBatchConfig {
	if c.Rows <= 0 {
		c.Rows = 30_000
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1, 64, 256}
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ExecBatchPoint is one (operator, batch size) measurement.
type ExecBatchPoint struct {
	// Op names the operator dominating the measured plan.
	Op        string
	BatchSize int
	// Latency is the best-of-reps execution time (plan excluded).
	Latency time.Duration
	// Rows the query returned (sanity: identical across batch sizes).
	Rows int
}

// ExecBatchRun is the BENCH_query.json payload.
type ExecBatchRun struct {
	TableRows int
	Sizes     []int
	Points    []ExecBatchPoint
	// Speedup maps operator name to latency(smallest capacity) /
	// latency(largest capacity) — above 1.0 means larger batches won.
	Speedup map[string]float64
}

// execBatchQueries maps each measurement to the plan it exercises. Each
// query is chosen so one operator dominates: the bare scan+project, a
// selective filter, a grouped aggregate, a sort with limit, and a join.
var execBatchJobs = []struct {
	op  string
	sql string
}{
	{"scan", `SELECT id, cat, qty, price FROM items`},
	{"filter", `SELECT id FROM items WHERE qty > 6 AND cat <> 3`},
	{"aggregate", `SELECT cat, COUNT(*), SUM(price), AVG(qty) FROM items GROUP BY cat`},
	{"sort", `SELECT id FROM items ORDER BY price DESC LIMIT 100`},
	{"join", `SELECT i.id, c.label FROM items i JOIN cats c ON i.cat = c.cat WHERE i.qty = 12`},
}

// execBatchDB opens a database and loads the dataset through the verified
// write path.
func execBatchDB(cfg ExecBatchConfig) (*core.DB, error) {
	db, err := core.Open(core.Config{Seed: uint64(cfg.Seed)})
	if err != nil {
		return nil, err
	}
	stmts := []string{
		`CREATE TABLE items (id INT PRIMARY KEY, cat INT, qty INT, price FLOAT)`,
		`CREATE TABLE cats (cat INT PRIMARY KEY, label TEXT)`,
	}
	for _, ddl := range stmts {
		if _, err := db.Execute(ddl); err != nil {
			return nil, err
		}
	}
	items, err := db.Store().Table("items")
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Rows; i++ {
		row := record.Tuple{
			record.Int(int64(i)), record.Int(int64(i % 16)),
			record.Int(int64(i % 13)), record.Float(float64(i) * 0.25),
		}
		if err := items.Insert(row); err != nil {
			return nil, err
		}
	}
	cats, err := db.Store().Table("cats")
	if err != nil {
		return nil, err
	}
	for c := 0; c < 16; c++ {
		if err := cats.Insert(record.Tuple{record.Int(int64(c)), record.Text(fmt.Sprintf("cat-%d", c))}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// runExecBatchQuery plans one query and drains it the way core.DB does, at
// the given batch capacity, returning the drain time and row count.
func runExecBatchQuery(db *core.DB, query string, size int) (time.Duration, int, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return 0, 0, err
	}
	op, err := db.Plan(stmt.(*sql.Select))
	if err != nil {
		return 0, 0, err
	}
	ex := engine.NewExec(nil, nil, size)
	engine.SetExec(op, ex)
	start := time.Now()
	rows, err := engine.Drain(op, ex)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), len(rows), nil
}

// RunExecBatch measures per-operator query latency across batch capacities
// (Fig. 14 shape: the same plans, the same operators, one row per call up
// to 256). Row counts are asserted identical across sizes — a
// capacity-dependent result is a correctness bug, not a data point.
func RunExecBatch(cfg ExecBatchConfig) (*ExecBatchRun, error) {
	cfg = cfg.withDefaults()
	run := &ExecBatchRun{TableRows: cfg.Rows, Sizes: cfg.Sizes, Speedup: make(map[string]float64)}
	rowsAt := make(map[string]int) // op -> result rows, the same at every size
	best := make(map[int]map[string]time.Duration)
	db, err := execBatchDB(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	for _, size := range cfg.Sizes {
		if size < 1 {
			return nil, fmt.Errorf("bench: batch size %d out of range", size)
		}
		best[size] = make(map[string]time.Duration)
	}
	// Capacities take turns inside each repetition, so warm-up and host
	// drift fall on all of them alike rather than on whichever ran first.
	for _, j := range execBatchJobs {
		for rep := 0; rep < cfg.Reps; rep++ {
			for _, size := range cfg.Sizes {
				d, n, err := runExecBatchQuery(db, j.sql, size)
				if err != nil {
					return nil, fmt.Errorf("bench: %s at batch %d: %w", j.op, size, err)
				}
				if want, ok := rowsAt[j.op]; ok && want != n {
					return nil, fmt.Errorf("bench: %s returned %d rows at batch %d, %d before", j.op, n, size, want)
				}
				rowsAt[j.op] = n
				if lat, ok := best[size][j.op]; !ok || d < lat {
					best[size][j.op] = d
				}
			}
		}
	}
	for _, size := range cfg.Sizes {
		for _, j := range execBatchJobs {
			run.Points = append(run.Points, ExecBatchPoint{
				Op: j.op, BatchSize: size, Latency: best[size][j.op], Rows: rowsAt[j.op],
			})
		}
	}
	// Speedup of the largest capacity over the smallest, when they differ.
	smallest, largest := cfg.Sizes[0], cfg.Sizes[0]
	for _, s := range cfg.Sizes {
		if s < smallest {
			smallest = s
		}
		if s > largest {
			largest = s
		}
	}
	if smallest != largest {
		for _, j := range execBatchJobs {
			if b := best[largest][j.op]; b > 0 {
				run.Speedup[j.op] = float64(best[smallest][j.op]) / float64(b)
			}
		}
	}
	return run, nil
}
