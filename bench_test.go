package veridb_test

// One benchmark family per figure in the paper's evaluation (§6). These
// run at reduced scale so `go test -bench=.` completes in minutes; the
// veridb-bench command runs the same harness at paper-like scale and
// prints the figures' series. EXPERIMENTS.md records paper-vs-measured.

import (
	"fmt"
	"testing"
	"time"

	"veridb/internal/bench"
	"veridb/internal/core"
	"veridb/internal/enclave"
	"veridb/internal/engine"
	"veridb/internal/mbtree"
	"veridb/internal/plan"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/storage"
	"veridb/internal/vmem"
	"veridb/internal/workload/tpcc"
	"veridb/internal/workload/tpch"
)

const benchRows = 20_000 // initial micro-benchmark table size

// benchTable loads the §6.1 key/value table under one vmem configuration.
func benchTable(b *testing.B, cfg vmem.Config) (*storage.Table, *vmem.Memory) {
	b.Helper()
	mem, err := vmem.New(enclave.NewForTest(1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := storage.NewStore(mem)
	t, err := st.CreateTable(storage.TableSpec{
		Name: "kv",
		Schema: record.NewSchema(
			record.Column{Name: "k", Type: record.TypeInt},
			record.Column{Name: "v", Type: record.TypeText},
		),
		PrimaryKey: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	val := record.Text(string(make([]byte, 500)))
	for i := 1; i <= benchRows; i++ {
		if err := t.Insert(record.Tuple{record.Int(int64(i) * 2), val}); err != nil {
			b.Fatal(err)
		}
	}
	return t, mem
}

// fig9Configs mirrors the Fig. 9 series.
var fig9Configs = []struct {
	name string
	cfg  vmem.Config
}{
	{"Baseline", vmem.Config{Mode: vmem.ModeBaseline}},
	{"RSWS", vmem.Config{}},
	{"RSWSMetadata", vmem.Config{VerifyMetadata: true}},
}

// BenchmarkFig9Get measures point-lookup latency per configuration.
func BenchmarkFig9Get(b *testing.B) {
	for _, c := range fig9Configs {
		b.Run(c.name, func(b *testing.B) {
			t, _ := benchTable(b, c.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i%benchRows+1) * 2
				if _, _, err := t.SearchPK(record.Int(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Update measures in-place update latency per configuration.
func BenchmarkFig9Update(b *testing.B) {
	val := record.Text(string(make([]byte, 500)))
	for _, c := range fig9Configs {
		b.Run(c.name, func(b *testing.B) {
			t, _ := benchTable(b, c.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i%benchRows+1) * 2
				if err := t.Update(record.Int(k), record.Tuple{record.Int(k), val}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9InsertDelete measures the chain-maintaining write pair.
func BenchmarkFig9InsertDelete(b *testing.B) {
	val := record.Text(string(make([]byte, 500)))
	for _, c := range fig9Configs {
		b.Run(c.name, func(b *testing.B) {
			t, _ := benchTable(b, c.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i%benchRows)*2 + 1
				if err := t.Insert(record.Tuple{record.Int(k), val}); err != nil {
					b.Fatal(err)
				}
				if err := t.Delete(record.Int(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10 measures Get latency while the non-quiescent verifier
// scans one page every x operations.
func BenchmarkFig10(b *testing.B) {
	for _, freq := range bench.Fig10Frequencies() {
		b.Run(fmt.Sprintf("opsPerScan=%d", freq), func(b *testing.B) {
			t, mem := benchTable(b, vmem.Config{})
			if err := mem.StartVerifier(freq); err != nil {
				b.Fatal(err)
			}
			defer mem.StopVerifier()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i%benchRows+1) * 2
				if _, _, err := t.SearchPK(record.Int(k)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := mem.Alarm(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFig11 compares VeriDB against the MB-Tree on the same ops.
func BenchmarkFig11(b *testing.B) {
	val := make([]byte, 500)
	key := func(k int64) []byte {
		return []byte{byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)}
	}
	b.Run("MBTree/Get", func(b *testing.B) {
		tr := mbtree.New(mbtree.DefaultFanout)
		var root mbtree.Hash
		for i := 1; i <= benchRows; i++ {
			root = tr.Insert(key(int64(i)*2), val)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i%benchRows+1) * 2
			got, proof, ok := tr.Get(key(k))
			if !ok {
				b.Fatal("missing key")
			}
			if err := mbtree.Verify(root, key(k), got, true, proof); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MBTree/Update", func(b *testing.B) {
		tr := mbtree.New(mbtree.DefaultFanout)
		for i := 1; i <= benchRows; i++ {
			tr.Insert(key(int64(i)*2), val)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Insert(key(int64(i%benchRows+1)*2), val)
		}
	})
	b.Run("VeriDB/Get", func(b *testing.B) {
		t, mem := benchTable(b, vmem.Config{})
		if err := mem.StartVerifier(1000); err != nil {
			b.Fatal(err)
		}
		defer mem.StopVerifier()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i%benchRows+1) * 2
			if _, _, err := t.SearchPK(record.Int(k)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("VeriDB/Update", func(b *testing.B) {
		t, mem := benchTable(b, vmem.Config{})
		if err := mem.StartVerifier(1000); err != nil {
			b.Fatal(err)
		}
		defer mem.StopVerifier()
		v := record.Text(string(val))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i%benchRows+1) * 2
			if err := t.Update(record.Int(k), record.Tuple{record.Int(k), v}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fig12DB loads a small TPC-H instance once per configuration.
func fig12DB(b *testing.B, baseline bool, js plan.JoinStrategy) *core.DB {
	b.Helper()
	mode := vmem.ModeRSWS
	if baseline {
		mode = vmem.ModeBaseline
	}
	db, err := core.Open(core.Config{Seed: 1, Memory: vmem.Config{Mode: mode}, Join: js})
	if err != nil {
		b.Fatal(err)
	}
	for _, ddl := range tpch.CreateTablesSQL() {
		if _, err := db.Execute(ddl); err != nil {
			b.Fatal(err)
		}
	}
	d := tpch.Generate(10_000, 333, 1)
	if err := tpch.Load(db.Store(), d); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkFig12 runs the three TPC-H queries with and without RSWS.
func BenchmarkFig12(b *testing.B) {
	queries := []struct {
		name string
		sql  string
		join plan.JoinStrategy
	}{
		{"Q1", tpch.Q1SQL(), plan.JoinAuto},
		{"Q6", tpch.Q6SQL(), plan.JoinAuto},
		{"Q19Merge", tpch.Q19SQL(), plan.JoinMerge},
		{"Q19NLJ", tpch.Q19SQL(), plan.JoinNested},
	}
	for _, q := range queries {
		for _, baseline := range []bool{false, true} {
			cfg := "RSWS"
			if baseline {
				cfg = "Baseline"
			}
			b.Run(q.name+"/"+cfg, func(b *testing.B) {
				db := fig12DB(b, baseline, q.join)
				defer db.Close()
				stmt, err := sql.Parse(q.sql)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op, err := db.Plan(stmt.(*sql.Select))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := engine.Drain(op, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig13 reports TPC-C throughput for the RSWS-count series at a
// fixed client count (the full clients × configs sweep is veridb-bench
// fig13). The metric of record is tps.
func BenchmarkFig13(b *testing.B) {
	series := []struct {
		name string
		cfg  vmem.Config
	}{
		{"NoRSWS", vmem.Config{Mode: vmem.ModeBaseline}},
		{"RSWS1", vmem.Config{Partitions: 1}},
		{"RSWS16", vmem.Config{Partitions: 16}},
		{"RSWS1024", vmem.Config{Partitions: 1024}},
	}
	for _, s := range series {
		b.Run(s.name, func(b *testing.B) {
			cfg := bench.TPCCConfig{
				Workload:    tpcc.Config{Warehouses: 4, Customers: 5, Items: 100},
				Duration:    500 * time.Millisecond,
				VerifyEvery: 1000,
			}
			var tps float64
			for i := 0; i < b.N; i++ {
				pt, err := bench.RunTPCCPoint(cfg, s.cfg, s.name, 4)
				if err != nil {
					b.Fatal(err)
				}
				tps = pt.TPS
			}
			b.ReportMetric(tps, "tps")
		})
	}
}

// BenchmarkShardScaling measures TPC-C throughput as tables split into
// more hash shards under a fixed 16-partition RSWS. With several clients
// the single table latch is the residual bottleneck §4.3's partitioned
// RSWS cannot remove; shards split that latch, so multi-client TPS should
// rise (or at worst hold) from 1 → 16 shards. veridb-bench fig13 runs the
// same sweep at scale and emits BENCH_shard.json.
func BenchmarkShardScaling(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := bench.TPCCConfig{
				Workload:    tpcc.Config{Warehouses: 4, Customers: 5, Items: 100},
				Duration:    500 * time.Millisecond,
				VerifyEvery: 1000,
				TableShards: shards,
			}
			var tps float64
			for i := 0; i < b.N; i++ {
				pt, err := bench.RunTPCCPoint(cfg, vmem.Config{Partitions: 16},
					fmt.Sprintf("%d shard(s)", shards), 4)
				if err != nil {
					b.Fatal(err)
				}
				tps = pt.TPS
			}
			b.ReportMetric(tps, "tps")
		})
	}
}

// BenchmarkVerifyScaling measures full-memory verification latency on a
// ≥10k-page memory as the verification worker count grows. On a multi-core
// host latency should fall monotonically from 1 → 4 workers (partition
// passes and intra-page PRF chunks parallelise; the XOR fold keeps the
// resident digests bit-identical, which the harness asserts). veridb-bench
// verify runs the same sweep and emits BENCH_verify.json.
func BenchmarkVerifyScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var lastPagesPerSec float64
			for i := 0; i < b.N; i++ {
				run, err := bench.RunVerifyScaling(bench.VerifyScalingConfig{
					Pages: 10_000, RecordsPerPage: 4, RecordBytes: 64,
					Partitions: 16, Passes: 1, Workers: []int{workers},
				})
				if err != nil {
					b.Fatal(err)
				}
				pt := run.Points[0]
				b.ReportMetric(float64(pt.FullScan.Nanoseconds()), "ns/full-scan")
				lastPagesPerSec = pt.PagesPerSecond
			}
			b.ReportMetric(lastPagesPerSec, "pages/sec")
		})
	}
}

// BenchmarkAblationMetadata quantifies §4.3's metadata-exclusion win as
// PRF evaluations per operation.
func BenchmarkAblationMetadata(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  vmem.Config
	}{{"excluded", vmem.Config{}}, {"included", vmem.Config{VerifyMetadata: true}}} {
		b.Run(c.name, func(b *testing.B) {
			t, mem := benchTable(b, c.cfg)
			before := mem.Stats().PRFEvals
			val := record.Text(string(make([]byte, 500)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i%benchRows)*2 + 1
				if err := t.Insert(record.Tuple{record.Int(k), val}); err != nil {
					b.Fatal(err)
				}
				if err := t.Delete(record.Int(k)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(mem.Stats().PRFEvals-before)/float64(b.N), "prf/op")
		})
	}
}

// BenchmarkAblationCompaction compares eager and deferred reclamation.
func BenchmarkAblationCompaction(b *testing.B) {
	val := record.Text(string(make([]byte, 500)))
	for _, c := range []struct {
		name string
		cfg  vmem.Config
	}{{"deferred", vmem.Config{}}, {"eager", vmem.Config{EagerCompaction: true}}} {
		b.Run(c.name, func(b *testing.B) {
			t, _ := benchTable(b, c.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i%benchRows)*2 + 1
				if err := t.Insert(record.Tuple{record.Int(k), val}); err != nil {
					b.Fatal(err)
				}
				if err := t.Delete(record.Int(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTouched compares warm verification passes with and
// without touched-page tracking.
func BenchmarkAblationTouched(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  vmem.Config
	}{{"touchedOnly", vmem.Config{}}, {"fullScan", vmem.Config{FullScan: true}}} {
		b.Run(c.name, func(b *testing.B) {
			t, mem := benchTable(b, c.cfg)
			if err := mem.VerifyAll(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Touch one row, then verify: the pass should be nearly
				// free with tracking, a full re-hash without.
				if _, _, err := t.SearchPK(record.Int(2)); err != nil {
					b.Fatal(err)
				}
				if err := mem.VerifyAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationECall prices the §3.3 enclave-colocation decision.
func BenchmarkAblationECall(b *testing.B) {
	enc, err := enclave.New(enclave.Config{ECallCycles: enclave.DefaultECallCycles})
	if err != nil {
		b.Fatal(err)
	}
	t, _ := benchTable(b, vmem.Config{})
	b.Run("colocated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := t.SearchPK(record.Int(int64(i%benchRows+1) * 2)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("crossingPerOp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enc.ECall()
			if _, _, err := t.SearchPK(record.Int(int64(i%benchRows+1) * 2)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
