// Command veridb-bench regenerates the paper's evaluation figures (§6).
// Each subcommand prints one figure's series; absolute numbers depend on
// the host, but the relationships the paper reports (who wins, by what
// factor, where curves cross) should reproduce. See EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
//
// Usage:
//
//	veridb-bench fig9  [-rows N] [-ops N]
//	veridb-bench fig10 [-rows N] [-ops N]
//	veridb-bench fig11 [-rows N] [-ops N]
//	veridb-bench fig12 [-lineitems N]
//	veridb-bench fig13 [-warehouses N] [-seconds S] [-shards 1,4,16] [-shard-json BENCH_shard.json]
//	veridb-bench verify [-pages N] [-workers 1,2,4,8] [-json BENCH_verify.json]
//	veridb-bench fault  [-rows N] [-trials N] [-json BENCH_fault.json]
//	veridb-bench query  [-query-rows N] [-batch-sizes 1,64,256] [-query-json BENCH_query.json]
//	veridb-bench wal    [-statements N] [-checkpoint-every N] [-wal-json BENCH_wal.json]
//	veridb-bench mvcc   [-warehouses N] [-seconds S] [-mvcc-clients N] [-mvcc-json BENCH_mvcc.json]
//	veridb-bench overload [-overload-rows N] [-seconds S] [-overload-workers N] [-overload-json BENCH_overload.json]
//	veridb-bench serve [-wire-rows N] [-wire-ops N] [-inflights 1,4,16,64] [-wire-json BENCH_wire.json]
//	veridb-bench ablations [-rows N]
//	veridb-bench all
//
// The verify subcommand measures the parallel verification pipeline
// (full-scan latency and epoch-rotation throughput vs. worker count) and,
// with -json, writes the sweep as machine-readable JSON so the perf
// trajectory is tracked across PRs.
//
// The fault subcommand measures the containment pipeline: per injected
// fault kind, the latency from corruption to an authenticated quarantine
// response (detection) and to a verified replacement serving again
// (time-to-recovered).
//
// The query subcommand sweeps the executor's batch capacity over a fixed
// query set (scan, filter, aggregate, sort, join) and, with -query-json,
// records the per-operator latencies so what batch size buys is tracked
// across PRs.
//
// The wal subcommand measures authenticated durability: per-statement
// append throughput with a MACed, fsync'd WAL (vs. the in-memory
// baseline), checkpoint cost, and the recovery latency of reopening the
// data directory through the VerifyAll admission gate.
//
// The overload subcommand measures overload protection: it drives point
// queries at several times the admission capacity, plus pathological
// workers (deadline-racing sorts, abandoned snapshot pins, slow LIMITed
// readers), and records the non-shed p99 against the unloaded p99, the
// typed shed refusals, and the post-drain leak checks (goroutines,
// tracked memory, snapshot pins). Every delivered response MAC-verifies.
//
// The serve subcommand measures the wire protocol end to end: a
// closed-loop load generator over a real TCP socket sweeps the in-flight
// window {1,4,16,64} on ONE connection through the client pipeline.
// Every response is MAC-verified, and the run hard-fails on a
// verification failure or a post-drain goroutine leak. The headline is
// the deepest window's speedup over window 1 (the serial exchange).
//
// The mvcc subcommand measures snapshot-read retention: TPC-C writer
// throughput with and without a concurrent reader that pins snapshots
// and drives long verified scans (asserting repeat-scan bit-identity).
// The headline is the retention ratio — snapshot readers hold no write
// latches past chain verification, so writers should keep ≥ 90% of
// their no-reader throughput.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"veridb/internal/bench"
	"veridb/internal/vmem"
	"veridb/internal/workload/tpcc"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	rows := fs.Int("rows", 100_000, "initial database rows (figs 9-11, ablations)")
	ops := fs.Int("ops", 10_000, "mixed operations per run (figs 9-11)")
	lineitems := fs.Int("lineitems", 60_000, "lineitem rows (fig 12); parts scale 1:30")
	warehouses := fs.Int("warehouses", 20, "warehouses (fig 13)")
	seconds := fs.Float64("seconds", 2, "seconds per throughput point (fig 13)")
	shardList := fs.String("shards", "1,4,16", "comma-separated TableShards sweep (fig 13)")
	shardJSON := fs.String("shard-json", "BENCH_shard.json", "write the shard sweep as JSON to this path (fig 13); empty disables")
	pages := fs.Int("pages", 10_000, "pages in the verify-scaling memory (verify)")
	workerList := fs.String("workers", "1,2,4,8", "comma-separated worker counts (verify)")
	jsonPath := fs.String("json", "", "write results as JSON to this path (verify, fault)")
	trials := fs.Int("trials", 8, "fault/recovery cycles, kinds rotating (fault)")
	faultRows := fs.Int("fault-rows", 128, "seeded rows per instance (fault)")
	queryRows := fs.Int("query-rows", 30_000, "fact-table rows (query)")
	batchSizes := fs.String("batch-sizes", "1,64,256", "comma-separated batch-capacity sweep (query)")
	queryJSON := fs.String("query-json", "BENCH_query.json", "write the batch sweep as JSON to this path (query); empty disables")
	statements := fs.Int("statements", 2000, "workload length per durability mode (wal)")
	checkpointEvery := fs.Int("checkpoint-every", 500, "checkpoint interval for the checkpointed mode (wal)")
	walJSON := fs.String("wal-json", "BENCH_wal.json", "write the durability run as JSON to this path (wal); empty disables")
	mvccClients := fs.Int("mvcc-clients", 8, "TPC-C writer count (mvcc)")
	mvccJSON := fs.String("mvcc-json", "BENCH_mvcc.json", "write the snapshot-read run as JSON to this path (mvcc); empty disables")
	overloadRows := fs.Int("overload-rows", 2000, "seeded kv rows (overload)")
	overloadWorkers := fs.Int("overload-workers", 8, "point-query storm workers (overload)")
	overloadJSON := fs.String("overload-json", "BENCH_overload.json", "write the overload run as JSON to this path (overload); empty disables")
	wireRows := fs.Int("wire-rows", 2000, "seeded kv rows (serve)")
	wireOps := fs.Int("wire-ops", 2000, "measured queries per inflight leg (serve)")
	inflightList := fs.String("inflights", "1,4,16,64", "comma-separated in-flight window sweep (serve)")
	rttMS := fs.Float64("rtt", 0.5, "modeled round-trip link latency, ms (serve); 0 measures raw loopback")
	wireJSON := fs.String("wire-json", "BENCH_wire.json", "write the wire sweep as JSON to this path (serve); empty disables")
	fs.Parse(os.Args[2:])

	run := func(name string, f func() error) {
		if cmd == name || cmd == "all" {
			if err := f(); err != nil {
				fmt.Fprintf(os.Stderr, "veridb-bench %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}
	known := map[string]bool{"fig9": true, "fig10": true, "fig11": true,
		"fig12": true, "fig13": true, "verify": true, "fault": true,
		"query": true, "wal": true, "mvcc": true, "overload": true,
		"serve": true, "ablations": true, "all": true}
	if !known[cmd] {
		usage()
		os.Exit(2)
	}
	run("fig9", func() error { return fig9(*rows, *ops) })
	run("fig10", func() error { return fig10(*rows, *ops) })
	run("fig11", func() error { return fig11(*rows, *ops) })
	run("fig12", func() error { return fig12(*lineitems) })
	run("fig13", func() error { return fig13(*warehouses, *seconds, *shardList, *shardJSON) })
	run("verify", func() error { return verifyScaling(*pages, *workerList, *jsonPath) })
	run("fault", func() error { return faultRecovery(*faultRows, *trials, *jsonPath) })
	run("query", func() error { return queryBatch(*queryRows, *batchSizes, *queryJSON) })
	run("wal", func() error { return walBench(*statements, *checkpointEvery, *walJSON) })
	run("mvcc", func() error { return mvccBench(*warehouses, *seconds, *mvccClients, *mvccJSON) })
	run("overload", func() error { return overloadBench(*overloadRows, *seconds, *overloadWorkers, *overloadJSON) })
	run("serve", func() error { return wireBench(*wireRows, *wireOps, *inflightList, *rttMS, *wireJSON) })
	run("ablations", func() error { return ablations(*rows) })
}

func usage() {
	fmt.Fprintln(os.Stderr, `veridb-bench <fig9|fig10|fig11|fig12|fig13|verify|fault|query|wal|mvcc|overload|serve|ablations|all> [flags]`)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func fig9(rows, ops int) error {
	fmt.Printf("== Figure 9: read/write latency by configuration (rows=%d, ops=%d) ==\n", rows, ops)
	fmt.Printf("%-18s %10s %10s %10s %10s\n", "config", "Get(us)", "Insert(us)", "Delete(us)", "Update(us)")
	var base, rsws bench.OpLatencies
	for _, c := range bench.Fig9Configs() {
		lat, err := bench.RunMicro(bench.MicroConfig{Vmem: c.Vmem, InitialRows: rows, Ops: ops})
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %10.2f %10.2f %10.2f %10.2f\n", c.Name,
			us(lat.Get), us(lat.Insert), us(lat.Delete), us(lat.Update))
		switch c.Name {
		case "Baseline":
			base = lat
		case "RSWS":
			rsws = lat
		}
	}
	fmt.Printf("-- headline (§6.1): RSWS overhead vs Baseline: Get %+.2fus Insert %+.2fus Delete %+.2fus Update %+.2fus (paper: 1-2us)\n\n",
		us(rsws.Get-base.Get), us(rsws.Insert-base.Insert),
		us(rsws.Delete-base.Delete), us(rsws.Update-base.Update))
	return nil
}

func fig10(rows, ops int) error {
	fmt.Printf("== Figure 10: latency vs verification frequency (rows=%d, ops=%d) ==\n", rows, ops)
	fmt.Printf("%-14s %10s %10s %10s %10s\n", "ops/page-scan", "Get(us)", "Insert(us)", "Delete(us)", "Update(us)")
	for _, freq := range bench.Fig10Frequencies() {
		lat, err := bench.RunMicro(bench.MicroConfig{InitialRows: rows, Ops: ops, VerifyEvery: freq})
		if err != nil {
			return err
		}
		fmt.Printf("%-14d %10.2f %10.2f %10.2f %10.2f\n", freq,
			us(lat.Get), us(lat.Insert), us(lat.Delete), us(lat.Update))
	}
	fmt.Println()
	return nil
}

func fig11(rows, ops int) error {
	fmt.Printf("== Figure 11: VeriDB vs MB-Tree (rows=%d, ops=%d) ==\n", rows, ops)
	veri, err := bench.RunMicro(bench.MicroConfig{InitialRows: rows, Ops: ops, VerifyEvery: 1000})
	if err != nil {
		return err
	}
	mb, err := bench.RunMBTreeMicro(bench.MicroConfig{InitialRows: rows, Ops: ops})
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %10s %10s %10s\n", "system", "Get(us)", "Insert(us)", "Delete(us)", "Update(us)")
	fmt.Printf("%-10s %10.2f %10.2f %10.2f %10.2f\n", "MHT", us(mb.Get), us(mb.Insert), us(mb.Delete), us(mb.Update))
	fmt.Printf("%-10s %10.2f %10.2f %10.2f %10.2f\n", "VeriDB", us(veri.Get), us(veri.Insert), us(veri.Delete), us(veri.Update))
	red := func(v, m time.Duration) float64 {
		if m == 0 {
			return 0
		}
		return 100 * (1 - float64(v)/float64(m))
	}
	fmt.Printf("-- headline (§6.2): latency reduction vs MB-Tree: Get %.0f%% Insert %.0f%% Delete %.0f%% Update %.0f%% (paper: 94-96%%)\n\n",
		red(veri.Get, mb.Get), red(veri.Insert, mb.Insert), red(veri.Delete, mb.Delete), red(veri.Update, mb.Update))
	return nil
}

func fig12(lineitems int) error {
	fmt.Printf("== Figure 12: TPC-H execution time (lineitems=%d) ==\n", lineitems)
	cfg := bench.TPCHConfig{Lineitems: lineitems}
	withRSWS, err := bench.RunTPCH(cfg, vmem.Config{}, "w/ RSWS")
	if err != nil {
		return err
	}
	baseline, err := bench.RunTPCH(cfg, vmem.Config{Mode: vmem.ModeBaseline}, "w/o RSWS")
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %14s %14s %14s %14s %9s\n",
		"query", "scan w/RSWS", "other w/RSWS", "scan w/o", "other w/o", "overhead")
	for i, r := range withRSWS.Results {
		b := baseline.Results[i]
		ovh := 0.0
		if b.Total > 0 {
			ovh = 100 * (float64(r.Total)/float64(b.Total) - 1)
		}
		fmt.Printf("%-22s %12.1fms %12.1fms %12.1fms %12.1fms %8.1f%%\n",
			r.Query,
			float64(r.ScanNodes.Microseconds())/1e3, float64(r.Other.Microseconds())/1e3,
			float64(b.ScanNodes.Microseconds())/1e3, float64(b.Other.Microseconds())/1e3,
			ovh)
	}
	fmt.Println("-- headline (§6.3): paper reports 9% (Q19 NLJ) to 39% (Q1/Q6) relative overhead")
	fmt.Println()
	return nil
}

func fig13(warehouses int, seconds float64, shardList, shardJSON string) error {
	fmt.Printf("== Figure 13: TPC-C throughput vs clients (warehouses=%d, %.1fs/point) ==\n", warehouses, seconds)
	cfg := bench.TPCCConfig{
		Workload:    tpcc.Config{Warehouses: warehouses, Customers: 10, Items: 200},
		Duration:    time.Duration(seconds * float64(time.Second)),
		VerifyEvery: 1000,
	}
	clients := []int{1, 2, 3, 4, 5, 6, 7, 8}
	fmt.Printf("%-18s", "config\\clients")
	for _, c := range clients {
		fmt.Printf(" %8d", c)
	}
	fmt.Println()
	for _, series := range bench.Fig13Series() {
		fmt.Printf("%-18s", series.Name)
		for _, c := range clients {
			pt, err := bench.RunTPCCPoint(cfg, series.Vmem, series.Name, c)
			if err != nil {
				return err
			}
			fmt.Printf(" %8.0f", pt.TPS)
		}
		fmt.Println()
	}
	fmt.Println("-- headline (§6.3): paper reports ~3-4x overhead with 1024 RSWSs, worse with fewer")
	fmt.Println()

	var shards []int
	for _, s := range strings.Split(shardList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -shards entry %q", s)
		}
		shards = append(shards, n)
	}
	shardClients := []int{1, 4, 8}
	fmt.Printf("== TableShards sweep: TPC-C throughput vs per-table shard count (16 RSWSs) ==\n")
	run, err := bench.RunShardScaling(bench.ShardScalingConfig{
		TPCC:    cfg,
		Vmem:    vmem.Config{Partitions: 16},
		Shards:  shards,
		Clients: shardClients,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-18s", "shards\\clients")
	for _, c := range shardClients {
		fmt.Printf(" %8d", c)
	}
	fmt.Println()
	i := 0
	for _, n := range shards {
		fmt.Printf("%-18d", n)
		for range shardClients {
			fmt.Printf(" %8.0f", run.Points[i].TPS)
			i++
		}
		fmt.Println()
	}
	fmt.Println("-- splitting the table latch should lift multi-client throughput once RSWS contention is gone")
	if shardJSON != "" {
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(shardJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("-- wrote %s\n", shardJSON)
	}
	fmt.Println()
	return nil
}

func verifyScaling(pages int, workerList, jsonPath string) error {
	var workers []int
	for _, s := range strings.Split(workerList, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w < 1 {
			return fmt.Errorf("bad -workers entry %q", s)
		}
		workers = append(workers, w)
	}
	fmt.Printf("== Verification scaling: full-scan latency vs. workers (pages=%d) ==\n", pages)
	run, err := bench.RunVerifyScaling(bench.VerifyScalingConfig{Pages: pages, Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %14s %12s %14s %9s %18s\n",
		"workers", "full-scan(ms)", "pages/sec", "rotations/sec", "speedup", "resident-checksum")
	for _, pt := range run.Points {
		fmt.Printf("%-8d %14.2f %12.0f %14.1f %8.2fx %18s\n",
			pt.Workers, float64(pt.FullScan.Microseconds())/1e3,
			pt.PagesPerSecond, pt.RotationsPerSecond, pt.Speedup, pt.Checksum)
	}
	fmt.Println("-- checksums are asserted identical across worker counts (XOR-fold exactness)")
	if jsonPath != "" {
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("-- wrote %s\n", jsonPath)
	}
	fmt.Println()
	return nil
}

func faultRecovery(rows, trials int, jsonPath string) error {
	fmt.Printf("== Fault recovery: detection and failover latency by fault kind (rows=%d, trials=%d) ==\n", rows, trials)
	run, err := bench.RunFaultRecovery(bench.FaultRecoveryConfig{Rows: rows, Trials: trials})
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %14s %14s %18s %12s %10s\n",
		"fault", "detection(ms)", "failover(ms)", "to-recovered(ms)", "quarantined", "seq-floor")
	for _, tr := range run.Trials {
		fmt.Printf("%-15s %14.2f %14.2f %18.2f %12d %10d\n",
			tr.Fault,
			float64(tr.Detection.Microseconds())/1e3,
			float64(tr.Failover.Microseconds())/1e3,
			float64(tr.TimeToRecovered.Microseconds())/1e3,
			tr.QuarantinedResponses, tr.SeqFloor)
	}
	fmt.Printf("-- mean: detection %.2fms, time-to-recovered %.2fms (inject -> verified replacement serving)\n",
		float64(run.MeanDetection.Microseconds())/1e3,
		float64(run.MeanTimeToRecovered.Microseconds())/1e3)
	if jsonPath != "" {
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("-- wrote %s\n", jsonPath)
	}
	fmt.Println()
	return nil
}

func queryBatch(rows int, sizeList, jsonPath string) error {
	var sizes []int
	for _, s := range strings.Split(sizeList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -batch-sizes entry %q", s)
		}
		sizes = append(sizes, n)
	}
	fmt.Printf("== Query execution: per-operator latency vs batch size (rows=%d) ==\n", rows)
	run, err := bench.RunExecBatch(bench.ExecBatchConfig{Rows: rows, Sizes: sizes})
	if err != nil {
		return err
	}
	fmt.Printf("%-11s", "op\\batch")
	for _, s := range run.Sizes {
		fmt.Printf(" %11d", s)
	}
	fmt.Printf(" %9s\n", "speedup")
	byOp := make(map[string]map[int]float64)
	for _, pt := range run.Points {
		if byOp[pt.Op] == nil {
			byOp[pt.Op] = make(map[int]float64)
		}
		byOp[pt.Op][pt.BatchSize] = float64(pt.Latency.Microseconds()) / 1e3
	}
	for _, op := range []string{"scan", "filter", "aggregate", "sort", "join"} {
		lat, ok := byOp[op]
		if !ok {
			continue
		}
		fmt.Printf("%-11s", op)
		for _, s := range run.Sizes {
			fmt.Printf(" %9.2fms", lat[s])
		}
		fmt.Printf(" %8.2fx\n", run.Speedup[op])
	}
	fmt.Println("-- row counts are asserted identical across batch sizes; batching must only move time, not rows")
	if jsonPath != "" {
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("-- wrote %s\n", jsonPath)
	}
	fmt.Println()
	return nil
}

func ablations(rows int) error {
	fmt.Println("== Ablations (§4.3 design choices) ==")
	comp, err := bench.RunAblationCompaction(rows/10, 5000)
	if err != nil {
		return err
	}
	fmt.Printf("compaction: delete latency eager=%.2fus deferred=%.2fus; scan-with-compaction pass=%v\n",
		us(comp.EagerDelete), us(comp.DeferredDelete), comp.ScanWithWork)
	touched, err := bench.RunAblationTouched(rows)
	if err != nil {
		return err
	}
	fmt.Printf("touched-page tracking: warm verification pass full-scan=%v touched-only=%v (%d pages)\n",
		touched.FullScan, touched.TouchedOnly, touched.Pages)
	ecall, err := bench.RunAblationECall(rows/10, 5000)
	if err != nil {
		return err
	}
	fmt.Printf("enclave colocation: Get colocated=%.2fus with-ECall-per-call=%.2fus (§3.3 rationale)\n",
		us(ecall.Colocated), us(ecall.Crossing))
	fmt.Println()
	return nil
}

func mvccBench(warehouses int, seconds float64, clients int, jsonPath string) error {
	fmt.Printf("== MVCC snapshot reads: writer retention under a concurrent verified reader (warehouses=%d, clients=%d, %.1fs/phase) ==\n",
		warehouses, clients, seconds)
	run, err := bench.RunMVCC(bench.MVCCConfig{
		Workload:    tpcc.Config{Warehouses: warehouses, Customers: 10, Items: 200},
		Duration:    time.Duration(seconds * float64(time.Second)),
		Clients:     clients,
		VerifyEvery: 1000,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %12s\n", "phase", "writer TPS")
	fmt.Printf("%-22s %12.0f\n", "baseline (no reader)", run.BaselineTPS)
	fmt.Printf("%-22s %12.0f\n", "with snapshot reader", run.ConcurrentTPS)
	fmt.Printf("-- retention %.1f%% (target ≥ 90%%); reader pinned %d snapshots, drained %d rows, every snapshot scanned twice bit-identically\n",
		run.Retention*100, run.ReaderSnapshots, run.ReaderRows)
	if jsonPath != "" {
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("-- wrote %s\n", jsonPath)
	}
	fmt.Println()
	return nil
}

func overloadBench(rows int, seconds float64, workers int, jsonPath string) error {
	fmt.Printf("== Overload protection: shedding, deadlines and leak checks under 4x load (rows=%d, workers=%d, %.1fs storm) ==\n",
		rows, workers, seconds)
	run, err := bench.RunOverload(bench.OverloadConfig{
		Rows:     rows,
		Workers:  workers,
		Duration: time.Duration(seconds * float64(time.Second)),
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-26s %12s\n", "metric", "value")
	fmt.Printf("%-26s %12.0f\n", "unloaded p99 (us)", run.UnloadedP99US)
	fmt.Printf("%-26s %12.0f\n", "loaded non-shed p99 (us)", run.LoadedP99US)
	fmt.Printf("%-26s %11.2fx\n", "p99 ratio (target <= 3)", run.P99Ratio)
	fmt.Printf("%-26s %12d\n", "delivered (MAC-verified)", run.Delivered)
	fmt.Printf("%-26s %12d\n", "shed (typed, retryable)", run.Shed)
	fmt.Printf("%-26s %12d\n", "deadline cancellations", run.Timeouts)
	fmt.Printf("%-26s %12d\n", "sessions expired", run.SessionsExpired)
	fmt.Printf("%-26s %12d\n", "mem high water (bytes)", run.MemHighWater)
	fmt.Printf("-- post-drain: mem %d (net of %d cache bytes), pins %d, goroutines %d (baseline %d)\n",
		run.PostDrainMemUsed, run.ResponseCacheBytes, run.PostDrainPins,
		run.PostCloseGoroutines, run.BaselineGoroutines)
	if jsonPath != "" {
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("-- wrote %s\n", jsonPath)
	}
	fmt.Println()
	return nil
}

func wireBench(rows, ops int, inflightList string, rttMS float64, jsonPath string) error {
	var inflights []int
	for _, s := range strings.Split(inflightList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -inflights entry %q", s)
		}
		inflights = append(inflights, n)
	}
	rtt := time.Duration(rttMS * float64(time.Millisecond))
	if rtt <= 0 {
		rtt = -1 // WireConfig: negative means a true zero-latency link
	}
	fmt.Printf("== Wire protocol: closed-loop QPS over one pipelined connection (rows=%d, ops=%d/leg, rtt=%.2fms) ==\n",
		rows, ops, rttMS)
	run, err := bench.RunWire(bench.WireConfig{Rows: rows, Ops: ops, Inflights: inflights, RTT: rtt})
	if err != nil {
		return err
	}
	fmt.Printf("%9s %10s %10s %12s %12s %10s\n",
		"inflight", "ops", "QPS", "p50(us)", "p99(us)", "verified")
	for _, leg := range run.Legs {
		fmt.Printf("%9d %10d %10.0f %12.1f %12.1f %10d\n",
			leg.Inflight, leg.Ops, leg.QPS, leg.P50US, leg.P99US, leg.Verified)
	}
	fmt.Printf("-- headline: deepest window vs window 1 speedup %.2fx; every response MAC-verified\n",
		run.SpeedupBinaryPipelined)
	fmt.Printf("-- post-drain goroutines %d (baseline %d): no connection, handler or writer leaked\n",
		run.PostDrainGoroutines, run.BaselineGoroutines)
	if jsonPath != "" {
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("-- wrote %s\n", jsonPath)
	}
	fmt.Println()
	return nil
}

func walBench(statements, checkpointEvery int, jsonPath string) error {
	fmt.Printf("== Durability: authenticated WAL append and recovery (statements=%d, checkpoint-every=%d) ==\n",
		statements, checkpointEvery)
	run, err := bench.RunWALBench(bench.WALBenchConfig{
		Statements: statements, CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %16s %14s %12s %12s %14s %12s %10s\n",
		"mode", "append(stmt/s)", "mean-ack(us)", "p50(us)", "p99(us)", "recovery(ms)", "recovered", "wal(KiB)")
	for _, m := range run.Modes {
		fmt.Printf("%-16s %16.0f %14.2f %12.2f %12.2f %14.2f %12d %10.1f\n",
			m.Mode, m.AppendThroughput, us(m.MeanAppend), us(m.P50Append), us(m.P99Append),
			float64(m.Recovery.Microseconds())/1e3,
			m.RecoveredStatements, float64(m.WALBytes)/1024)
	}
	fmt.Printf("-- fsync'd MACed append keeps %.1f%% of in-memory write throughput\n",
		run.DurabilityOverhead*100)
	fmt.Println("\n-- concurrent-writer sweep (shared durable DB, disjoint key ranges) --")
	fmt.Printf("%-8s %16s %12s %12s %12s\n",
		"clients", "append(stmt/s)", "mean(us)", "p50(us)", "p99(us)")
	for _, p := range run.ConcurrencySweep {
		fmt.Printf("%-8d %16.0f %12.2f %12.2f %12.2f\n",
			p.Clients, p.Throughput, us(p.MeanAppend), us(p.P50Append), us(p.P99Append))
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("-- wrote %s\n", jsonPath)
	}
	fmt.Println()
	return nil
}
