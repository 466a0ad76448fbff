package main

import (
	"fmt"
	"math"
	"time"

	"veridb/internal/enclave"
	"veridb/internal/record"
	"veridb/internal/storage"
	"veridb/internal/vmem"
	"veridb/internal/workload/tpcc"
)

// storage_tpcc: the paper's Fig. 13 path — TPC-C-shaped transactions run
// directly against a storage.Store over vmem, bypassing wire, server,
// portal, sql, plan and engine. It drives the same storage, index, vmem
// and sethash layers as the SQL workloads as a read-write mix under
// shard-latch, RSWS-partition and verifier contention; anything from wire
// to engine predicts exactly no change here, which makes it the control.
type tpccInstance struct {
	mem     *vmem.Memory
	tables  *tpcc.Tables
	cfg     tpcc.Config
	workers []*tpcc.Worker
}

func tpccConfig(o *options) tpcc.Config {
	return tpcc.Config{Warehouses: o.sz.warehouses, Customers: 10, Items: 200}
}

// openTPCC builds a populated store the way core.Open would with the
// shipped defaults (this workload sits below core). verifier says whether
// the background verifier runs; the ladder's mirror keeps it off for
// exact counts.
func openTPCC(seed int64, cfg tpcc.Config, verifier bool) (*vmem.Memory, *storage.Store, *tpcc.Tables, error) {
	mem, err := vmem.New(enclave.NewForTest(uint64(seed)), vmem.Config{Mode: vmem.ModeRSWS, Partitions: rswsPartitions})
	if err != nil {
		return nil, nil, nil, err
	}
	if verifier {
		if err := mem.StartVerifier(verifyEveryOps); err != nil {
			return nil, nil, nil, err
		}
	}
	st := storage.NewStore(mem)
	tables, err := tpcc.CreateTables(st)
	if err == nil {
		err = tpcc.Populate(tables, cfg, seed)
	}
	if err != nil {
		mem.StopVerifier()
		return nil, nil, nil, err
	}
	return mem, st, tables, nil
}

func setupTPCC(o *options, seed int64, _ string) (instance, error) {
	cfg := tpccConfig(o)
	mem, _, tables, err := openTPCC(seed, cfg, true)
	if err != nil {
		return nil, err
	}
	t := &tpccInstance{mem: mem, tables: tables, cfg: cfg}
	if err := t.verifyAll(); err != nil {
		mem.StopVerifier()
		return nil, fmt.Errorf("first VerifyAll: %w", err)
	}
	for i := 0; i < o.sz.clients; i++ {
		t.workers = append(t.workers, tpcc.NewWorker(tables, cfg, i, seed*1000+int64(i)))
	}
	return t, nil
}

// tpccGen is one worker in a closed loop: an operation is one transaction.
type tpccGen struct{ w *tpcc.Worker }

func (g tpccGen) do(sp *spanBuf, opID uint64) (string, time.Duration, error) {
	no, pay := g.w.NewOrders, g.w.Payments
	t0 := time.Now()
	err := g.w.Run()
	t1 := time.Now()
	// The worker draws the transaction type inside Run; its counters say
	// which one ran.
	kind := "orderstatus"
	switch {
	case g.w.NewOrders > no:
		kind = "neworder"
	case g.w.Payments > pay:
		kind = "payment"
	}
	sp.record(spanOp+kind, t0, t1, opID)
	return kind, t1.Sub(t0), err
}

func (t *tpccInstance) generators() []generator {
	gens := make([]generator, len(t.workers))
	for i, w := range t.workers {
		gens[i] = tpccGen{w}
	}
	return gens
}

func (t *tpccInstance) counters() counters {
	s := t.mem.Stats()
	return counters{
		ops: s.Ops, prfEvals: s.PRFEvals, scans: s.Scans, fastScans: s.FastScans,
		pagesAlive: s.PagesAlive,
	}
}

// verifyAll stops the background verifier around the pass for the reason
// verifyIdle gives.
func (t *tpccInstance) verifyAll() error {
	t.mem.StopVerifier()
	if err := t.mem.VerifyAll(); err != nil {
		return err
	}
	return t.mem.StartVerifier(verifyEveryOps)
}

func (t *tpccInstance) close() error {
	t.mem.StopVerifier()
	return nil
}

// postRun checks the database against what the workers did: every
// New-Order left one orders row and one new_order row and advanced its
// district's next order id; every Payment left one history row and added
// the same amount to its warehouse and its district.
func (t *tpccInstance) postRun(string, *metrics, bool) error {
	return checkTPCC(t.tables, t.workers)
}

func (t *tpccInstance) afterWarmup(string, *metrics) error { return nil }

func checkTPCC(tb *tpcc.Tables, workers []*tpcc.Worker) error {
	var newOrders, payments int
	for _, w := range workers {
		newOrders += w.NewOrders
		payments += w.Payments
	}
	if got := tb.Orders.RowCount(); got != newOrders {
		return fmt.Errorf("%d orders rows after %d New-Order transactions", got, newOrders)
	}
	if got := tb.NewOrder.RowCount(); got != newOrders {
		return fmt.Errorf("%d new_order rows after %d New-Order transactions", got, newOrders)
	}
	if got := tb.History.RowCount(); got != payments {
		return fmt.Errorf("%d history rows after %d Payment transactions", got, payments)
	}
	sum := func(t *storage.Table, col int) (float64, error) {
		it, err := t.SeqScan()
		if err != nil {
			return 0, err
		}
		defer it.Close()
		var s float64
		for {
			row, ok, err := it.Next()
			if err != nil || !ok {
				return s, err
			}
			if row[col].Type == record.TypeInt {
				s += float64(row[col].I)
			} else {
				s += row[col].F
			}
		}
	}
	wYTD, err := sum(tb.Warehouse, 2)
	if err != nil {
		return err
	}
	dYTD, err := sum(tb.District, 2)
	if err != nil {
		return err
	}
	if math.Abs(wYTD-dYTD) > 1e-6*math.Max(1, wYTD) {
		return fmt.Errorf("warehouse year-to-date %v differs from district year-to-date %v", wYTD, dYTD)
	}
	nextIDs, err := sum(tb.District, 3)
	if err != nil {
		return err
	}
	if districts := tb.District.RowCount(); int(nextIDs)-districts != newOrders {
		return fmt.Errorf("districts allocated %d order ids for %d New-Order transactions", int(nextIDs)-districts, newOrders)
	}
	return nil
}

func (t *tpccInstance) ladder(o *options, seed int64, _ string, m *metrics) error {
	// A mirror whose verifier never runs: no compaction, no scan PRFs, so
	// the counts below repeat exactly for a seed.
	mem, st, tables, err := openTPCC(seed, t.cfg, false)
	if err != nil {
		return err
	}
	cl, err := cellLen(mem)
	if err != nil {
		return err
	}
	prims, err := measurePrims(seed, cl, o.sz.pointCalls)
	if err != nil {
		return fmt.Errorf("vmem primitives: %w", err)
	}

	// The four Table calls on stock, the table New-Order touches most.
	n := o.sz.pointCalls
	items := t.cfg.Items
	stockRow := func(w, i int) record.Tuple {
		return record.Tuple{record.Int(int64(w)*1_000_000 + int64(i)), record.Int(50), record.Int(0), record.Int(0)}
	}
	rng := clientRNG(seed, 100)
	picks := make([][2]int, n)
	for i := range picks {
		picks[i] = [2]int{1 + rng.Intn(t.cfg.Warehouses), 1 + rng.Intn(items)}
	}
	row := func(i int) record.Tuple { return stockRow(picks[i][0], picks[i][1]) }
	if err := measureStorage(m, st, tables.Stock, n, row,
		func(i int) record.Tuple { return stockRow(t.cfg.Warehouses+1, items+1+i) }); err != nil {
		return err
	}
	m.set("record.codec_ns", recordCodecNS(n, row))

	// One worker, a fixed number of transactions: the counting pass, then
	// the timed rung. An operation here is a transaction, so R3 is the
	// transaction itself and there are no rungs above it.
	w := tpcc.NewWorker(tables, t.cfg, 0, seed*1000+100)
	calls, err := countCalls(mem, prims, o.sz.countOps, func(int) error { return w.Run() })
	if err != nil {
		return fmt.Errorf("counting pass: %w", err)
	}
	m.set("vmem.prf_evals_per_op", calls.prfs)
	m.set("vmem.protected_ops_per_op", calls.ops())
	g := tpccGen{w}
	r3 := kindSamples{}
	for i := 0; i < n; i++ {
		kind, lat, err := g.do(nil, 0)
		if err != nil {
			return fmt.Errorf("R3 %s: %w", kind, err)
		}
		r3[kind] = append(r3[kind], float64(lat.Nanoseconds())/1e3)
	}
	m.set("ladder.r3_us", r3.mix())
	setLower(m, calls, prims)
	return checkTPCC(tables, []*tpcc.Worker{w})
}
