package veridb_test

// The paper's evaluation (§6) as testing.B benchmarks: one family per
// figure (Figs. 9-13), the §4.3 ablations, and the sweeps riding along
// them — verification workers, table shards, a snapshot reader beside
// TPC-C writers. Each sweep dimension is a sub-benchmark name
// (Fig13/RSWS16/clients=4) and GOMAXPROCS is `go test -cpu 1,2`; there is
// no other knob. Scale is reduced so `go test -bench .` completes in
// minutes; EXPERIMENTS.md records paper-vs-measured and the pattern that
// regenerates each table. Sweeps that measure one package (the WAL's
// commit-group writers, fault containment, the pipelined window) live in
// that package's test files.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"veridb"
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
		if err := t.InsertAt(record.Tuple{record.Int(int64(i) * 2), val}, nil); err != nil {
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
				if _, _, err := t.Get(record.Int(k)); err != nil {
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
				if err := t.UpdateAt(record.Int(k), record.Tuple{record.Int(k), val}, nil); err != nil {
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
				if err := t.InsertAt(record.Tuple{record.Int(k), val}, nil); err != nil {
					b.Fatal(err)
				}
				if err := t.DeleteAt(record.Int(k), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteMix is the write path without a disk: wire_write_durable's
// 50/25/25 UPDATE/INSERT/DELETE mix by primary key over an in-memory kv
// table of writeMixRows rows, each statement a plan-cache hit served through
// the portal (db.Serve) and verified by the client. One op is one
// statement; allocs/op counts both ends. The statements are drawn before
// the timer starts, from a model of which keys are present.
func BenchmarkWriteMix(b *testing.B) {
	const writeMixRows = 10_000
	db, err := veridb.Open(veridb.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	present := make([]int64, 0, writeMixRows)
	var absent []int64
	for lo := 0; lo < writeMixRows; lo += 100 {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO kv VALUES `)
		for k := lo; k < lo+100; k++ {
			if k > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, 'value-%08d-0')", k, k)
			present = append(present, int64(k))
		}
		if _, err := db.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	stmts := make([]string, b.N)
	for i := range stmts {
		switch r := rng.Float64(); {
		case r < 0.50:
			k := present[rng.Intn(len(present))]
			stmts[i] = fmt.Sprintf(`UPDATE kv SET v = 'value-%08d-%d' WHERE k = %d`, k, i, k)
		case r < 0.75 && len(absent) > 0:
			j := rng.Intn(len(absent))
			k := absent[j]
			absent[j] = absent[len(absent)-1]
			absent = absent[:len(absent)-1]
			present = append(present, k)
			stmts[i] = fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'value-%08d-%d')`, k, k, i)
		default:
			j := rng.Intn(len(present))
			k := present[j]
			present[j] = present[len(present)-1]
			present = present[:len(present)-1]
			absent = append(absent, k)
			stmts[i] = fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, k)
		}
	}
	key := []byte("write-mix-key")
	db.ProvisionClient("bench", key)
	c := veridb.NewClient("bench", key)
	b.ReportAllocs()
	b.ResetTimer()
	for _, q := range stmts {
		req := c.NewRequest(q)
		resp, err := db.Serve(req)
		if err == nil {
			err = c.VerifyResponse(req, resp)
		}
		if err == nil && resp.Affected != 1 {
			err = fmt.Errorf("%d rows affected", resp.Affected)
		}
		if err != nil {
			b.Fatalf("%s: %v", q, err)
		}
	}
}

// BenchmarkFig10 measures Get latency while the non-quiescent verifier
// scans one page every x operations (the paper's x-axis).
func BenchmarkFig10(b *testing.B) {
	for _, freq := range []int{50, 100, 200, 500, 1000} {
		b.Run(fmt.Sprintf("opsPerScan=%d", freq), func(b *testing.B) {
			t, mem := benchTable(b, vmem.Config{})
			if err := mem.StartVerifier(freq); err != nil {
				b.Fatal(err)
			}
			defer mem.StopVerifier()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i%benchRows+1) * 2
				if _, _, err := t.Get(record.Int(k)); err != nil {
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

// BenchmarkFig11 compares VeriDB against the MB-Tree on the same four
// ops: Get, Insert, Delete and Update over a table of benchRows even keys.
func BenchmarkFig11(b *testing.B) {
	val := make([]byte, 500)
	key := func(k int64) []byte {
		return []byte{byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)}
	}
	mbTree := func() *mbtree.Tree {
		tr := mbtree.New(mbtree.DefaultFanout)
		for i := 1; i <= benchRows; i++ {
			tr.Insert(key(int64(i)*2), val)
		}
		return tr
	}
	veriDB := func(b *testing.B) *storage.Table {
		t, mem := benchTable(b, vmem.Config{})
		if err := mem.StartVerifier(1000); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(mem.StopVerifier)
		return t
	}
	v := record.Text(string(val))
	insert := func(b *testing.B, t *storage.Table) func(int64) {
		return func(k int64) {
			if err := t.InsertAt(record.Tuple{record.Int(k), v}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	del := func(b *testing.B, t *storage.Table) func(int64) {
		return func(k int64) {
			if err := t.DeleteAt(record.Int(k), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("MBTree/Get", func(b *testing.B) {
		tr := mbTree()
		root := tr.Root()
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
	b.Run("MBTree/Insert", func(b *testing.B) {
		tr := mbTree()
		b.ResetTimer()
		fig11Churn(b, func(k int64) { tr.Insert(key(k), val) }, func(k int64) { tr.Delete(key(k)) })
	})
	b.Run("MBTree/Delete", func(b *testing.B) {
		tr := mbTree()
		for j := 0; j < benchRows; j++ {
			tr.Insert(key(int64(j)*2+1), val)
		}
		b.ResetTimer()
		fig11Churn(b, func(k int64) { tr.Delete(key(k)) }, func(k int64) { tr.Insert(key(k), val) })
	})
	b.Run("MBTree/Update", func(b *testing.B) {
		tr := mbTree()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Insert(key(int64(i%benchRows+1)*2), val)
		}
	})
	b.Run("VeriDB/Get", func(b *testing.B) {
		t := veriDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i%benchRows+1) * 2
			if _, _, err := t.Get(record.Int(k)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("VeriDB/Insert", func(b *testing.B) {
		t := veriDB(b)
		b.ResetTimer()
		fig11Churn(b, insert(b, t), del(b, t))
	})
	b.Run("VeriDB/Delete", func(b *testing.B) {
		t := veriDB(b)
		for j := 0; j < benchRows; j++ {
			insert(b, t)(int64(j)*2 + 1)
		}
		b.ResetTimer()
		fig11Churn(b, del(b, t), insert(b, t))
	})
	b.Run("VeriDB/Update", func(b *testing.B) {
		t := veriDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i%benchRows+1) * 2
			if err := t.UpdateAt(record.Int(k), record.Tuple{record.Int(k), v}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fig11Churn times b.N calls of op on the odd keys between the loaded even
// ones, in order. After each pass over all benchRows of them, undo puts
// every key back, untimed, so every pass starts from the same table.
func fig11Churn(b *testing.B, op, undo func(k int64)) {
	for i := 0; i < b.N; i++ {
		j := i % benchRows
		if j == 0 && i > 0 {
			b.StopTimer()
			for u := 0; u < benchRows; u++ {
				undo(int64(u)*2 + 1)
			}
			b.StartTimer()
		}
		op(int64(j)*2 + 1)
	}
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

// tpccWorkload is the Fig. 13 database: 20 warehouses at reduced customer
// and item counts.
var tpccWorkload = tpcc.Config{Warehouses: 20, Customers: 10, Items: 200}

// tpccDB populates a fresh TPC-C database over one memory configuration,
// hash-sharding every table when shards > 1; a verifying memory runs its
// background verifier at one page scan per 1 000 operations.
func tpccDB(b *testing.B, vc vmem.Config, shards int) (*storage.Store, *tpcc.Tables, *vmem.Memory) {
	b.Helper()
	mem, err := vmem.New(enclave.NewForTest(1), vc)
	if err != nil {
		b.Fatal(err)
	}
	st := storage.NewStore(mem)
	if shards > 1 {
		st.SetDefaultShards(shards)
	}
	tables, err := tpcc.CreateTables(st)
	if err != nil {
		b.Fatal(err)
	}
	if err := tpcc.Populate(tables, tpccWorkload, 1); err != nil {
		b.Fatal(err)
	}
	if vc.Mode == vmem.ModeRSWS {
		if err := mem.StartVerifier(1000); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(mem.StopVerifier)
	}
	return st, tables, mem
}

// runTPCC drives b.N TPC-C transactions from `clients` workers, reports
// and returns transactions per second, and fails the run on an error or a
// verification alarm.
func runTPCC(b *testing.B, tables *tpcc.Tables, mem *vmem.Memory, clients int) float64 {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := tpcc.NewWorker(tables, tpccWorkload, c, 1000+int64(c))
			for next.Add(1) <= int64(b.N) {
				if err := w.Run(); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	if err := mem.Alarm(); err != nil {
		b.Fatalf("verification alarm in a clean TPC-C run: %v", err)
	}
	tps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(tps, "tps")
	return tps
}

// BenchmarkFig13 is TPC-C throughput for the paper's RSWS-count series
// at 1 to 8 clients; the metric of record is tps.
func BenchmarkFig13(b *testing.B) {
	series := []struct {
		name string
		cfg  vmem.Config
	}{
		{"NoRSWS", vmem.Config{Mode: vmem.ModeBaseline}},
		{"RSWS1024", vmem.Config{Partitions: 1024}},
		{"RSWS128", vmem.Config{Partitions: 128}},
		{"RSWS16", vmem.Config{Partitions: 16}},
		{"RSWS4", vmem.Config{Partitions: 4}},
		{"RSWS1", vmem.Config{Partitions: 1}},
	}
	for _, s := range series {
		for clients := 1; clients <= 8; clients++ {
			b.Run(fmt.Sprintf("%s/clients=%d", s.name, clients), func(b *testing.B) {
				_, tables, mem := tpccDB(b, s.cfg, 0)
				runTPCC(b, tables, mem, clients)
			})
		}
	}
}

// BenchmarkShardScaling is TPC-C throughput as every table splits into
// more hash shards under a fixed 16-partition RSWS, so the contention left
// is the table latch the shards split. Measured (EXPERIMENTS.md, Fig. 13):
// on two cores 4 shards beat 1 only at 2 clients, 1 shard wins at 8, and
// 16 shards lose from 4 clients up; at GOMAXPROCS 1 every shard count
// loses about 40 % from one client to two.
func BenchmarkShardScaling(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		for _, clients := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("shards=%d/clients=%d", shards, clients), func(b *testing.B) {
				_, tables, mem := tpccDB(b, vmem.Config{Partitions: 16}, shards)
				runTPCC(b, tables, mem, clients)
			})
		}
	}
}

// BenchmarkMVCCSnapshotReader is what a snapshot reader costs eight TPC-C
// writers: reader=false runs them alone, reader=true beside a reader that
// pins snapshots and scans the stock table twice under each, requiring
// byte-identical scans whatever the writers commit in between, and
// reports its writer throughput as a share of reader=false's (retention).
func BenchmarkMVCCSnapshotReader(b *testing.B) {
	var alone float64
	for _, reader := range []bool{false, true} {
		b.Run(fmt.Sprintf("reader=%v", reader), func(b *testing.B) {
			st, tables, mem := tpccDB(b, vmem.Config{Partitions: 16}, 0)
			var done atomic.Bool
			var wg sync.WaitGroup
			if reader {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done.Load() {
						snap := st.OpenSnapshot()
						first, err1 := scanDigest(tables.Stock, snap)
						second, err2 := scanDigest(tables.Stock, snap)
						snap.Close()
						if err := errors.Join(err1, err2); err != nil {
							b.Error(err)
							return
						}
						if first != second {
							b.Errorf("repeat scan of snapshot %d diverged", snap.Seq())
							return
						}
					}
				}()
			}
			tps := runTPCC(b, tables, mem, 8)
			done.Store(true)
			wg.Wait()
			if !reader {
				alone = tps
			} else if alone > 0 {
				b.ReportMetric(tps/alone, "retention")
			}
		})
	}
}

// scanDigest hashes one verified sequential scan of t as of snap.
func scanDigest(t *storage.Table, snap *storage.Snapshot) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	it, err := t.SeqScanAt(snap)
	if err != nil {
		return sum, err
	}
	defer it.Close()
	h := sha256.New()
	batch := storage.NewRowBatch(storage.DefaultBatchCapacity)
	for {
		k, err := it.NextBatch(batch)
		if err != nil || k == 0 {
			copy(sum[:], h.Sum(nil))
			return sum, err
		}
		for i := 0; i < k; i++ {
			h.Write(record.Encode(&record.Record{Data: batch.Row(i)}))
		}
	}
}

// verifyScalingChecksums holds each partition count's resident checksum
// from its first run, across every -cpu value of one invocation.
var verifyScalingChecksums = map[int]string{}

// BenchmarkVerifyScaling times one full VerifyAll pass over a 10 000-page
// memory as GOMAXPROCS (-cpu) grows: VerifyAll spreads a pass's pages over
// that many goroutines. Full-scan mode re-hashes every cell on every pass
// — the PRF-bound work §6.1 says dominates. It runs at 16 RSWSs and at 1,
// because the pages, not the partitions, are what is spread. The parallel
// XOR fold is exact, so every -cpu value must leave the same resident
// checksum. Measured in EXPERIMENTS.md ("Verification scaling").
func BenchmarkVerifyScaling(b *testing.B) {
	for _, parts := range []int{16, 1} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			mem, err := vmem.New(enclave.NewForTest(1), vmem.Config{Partitions: parts, FullScan: true})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			rec := make([]byte, 64)
			for p := 0; p < 10_000; p++ {
				pid, err := mem.NewPage()
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < 4; r++ {
					rng.Read(rec)
					if _, err := mem.Insert(pid, rec); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := mem.VerifyAll(); err != nil { // warm-up pass, untimed
				b.Fatal(err)
			}
			runtime.GC() // settle the heap the load grew before timing
			scans := mem.Stats().Scans
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mem.VerifyAll(); err != nil {
					b.Fatalf("clean memory raised an alarm: %v", err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(mem.Stats().Scans-scans)/b.Elapsed().Seconds(), "pages/s")
			sum := mem.ResidentChecksum().String()
			if first, ok := verifyScalingChecksums[parts]; !ok {
				verifyScalingChecksums[parts] = sum
			} else if sum != first {
				b.Fatalf("resident checksum %s at GOMAXPROCS %d != %s: the parallel fold must be bit-identical",
					sum, runtime.GOMAXPROCS(0), first)
			}
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
				if err := t.InsertAt(record.Tuple{record.Int(k), val}, nil); err != nil {
					b.Fatal(err)
				}
				if err := t.DeleteAt(record.Int(k), nil); err != nil {
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
				if err := t.InsertAt(record.Tuple{record.Int(k), val}, nil); err != nil {
					b.Fatal(err)
				}
				if err := t.DeleteAt(record.Int(k), nil); err != nil {
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
				if _, _, err := t.Get(record.Int(2)); err != nil {
					b.Fatal(err)
				}
				if err := mem.VerifyAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The boundary-crossing cost the paper reports (§2.1, citing
// HotCalls/Eleos: ~8000 cycles per ECall) and the clock of its Xeon
// E3-1270 v6, which together price a crossing count.
const (
	ecallCycles = 8000
	cpuGHz      = 3.8
)

// BenchmarkAblationECall prices the §3.3 enclave-colocation decision. The
// simulated enclave counts crossings and does not spend time on them, so
// each sub-benchmark times a Get and reports the crossings it made
// (ecalls/op, from enclave.Stats) and what they would cost on the paper's
// hardware (ecall-ns/op). Colocated, the engine calls storage inside the
// enclave; with the engine outside, every storage call crosses.
func BenchmarkAblationECall(b *testing.B) {
	enc, err := enclave.New()
	if err != nil {
		b.Fatal(err)
	}
	t, _ := benchTable(b, vmem.Config{})
	for _, c := range []struct {
		name      string
		crossings int // per storage call
	}{{"colocated", 0}, {"crossingPerOp", 1}} {
		b.Run(c.name, func(b *testing.B) {
			before := enc.Stats().ECalls
			for i := 0; i < b.N; i++ {
				for j := 0; j < c.crossings; j++ {
					enc.ECall()
				}
				if _, _, err := t.Get(record.Int(int64(i%benchRows+1) * 2)); err != nil {
					b.Fatal(err)
				}
			}
			perOp := float64(enc.Stats().ECalls-before) / float64(b.N)
			b.ReportMetric(perOp, "ecalls/op")
			b.ReportMetric(perOp*ecallCycles/cpuGHz, "ecall-ns/op")
		})
	}
}
