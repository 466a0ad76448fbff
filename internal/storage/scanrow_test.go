package storage

import (
	"fmt"
	"runtime"
	"testing"

	"veridb/internal/record"
	"veridb/internal/vmem"
)

// The allocation gate on the verified scan row. A scanned row's floor is
// its two PRF evaluations, which allocate nothing; everything else the
// scanner does per row is either amortised over the batch or one of the
// allocations counted here. Allocation counts are the same on any host,
// unlike the timing smokes, so this runs with the ordinary tests.

const (
	scanRowTable = 6000 // rows loaded
	scanRowSpan  = 2000 // rows per range scan, as in wire_scan_analytic
	// scanRowMaxAllocs: a whole row. Its values are cut from the fill's
	// slab and its text is appended to the fill's string, both paid per
	// fill; the bound dates from when each row cost a tuple and a string,
	// plus headroom for what a fill and a scan pay once.
	scanRowMaxAllocs = 3
	// scanRowProjectedMaxAllocs: three numeric columns, as the analytic
	// statements read. Nothing is left to allocate per row; what a fill
	// pays once (the slab, the index cursor's closure) and a scan pays
	// once (scanner, snapshot) amortise to well under one.
	scanRowProjectedMaxAllocs = 1
)

// scanRowProjection is three numeric lineitem columns: l_quantity,
// l_extendedprice and l_discount.
var scanRowProjection = []int{2, 3, 4}

// lineitemTable loads a TPC-H-lineitem-shaped table: eleven columns, four
// of them text, a secondary chain on the ship date (internal/workload/tpch
// imports this package, so the shape is restated here).
func lineitemTable(tb testing.TB) *Table {
	tb.Helper()
	col := func(name string, typ record.Type) record.Column { return record.Column{Name: name, Type: typ} }
	t, err := newStore(tb, vmem.Config{Partitions: 16}).CreateTable(TableSpec{
		Name: "lineitem",
		Schema: record.NewSchema(
			col("l_id", record.TypeInt), col("l_partkey", record.TypeInt),
			col("l_quantity", record.TypeFloat), col("l_extendedprice", record.TypeFloat),
			col("l_discount", record.TypeFloat), col("l_tax", record.TypeFloat),
			col("l_returnflag", record.TypeText), col("l_linestatus", record.TypeText),
			col("l_shipdate", record.TypeInt),
			col("l_shipinstruct", record.TypeText), col("l_shipmode", record.TypeText),
		),
		PrimaryKey:   0,
		ChainColumns: []int{8},
	})
	if err != nil {
		tb.Fatal(err)
	}
	instruct := []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	mode := []string{"AIR", "AIR REG", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	for i := 1; i <= scanRowTable; i++ {
		err := t.InsertAt(record.Tuple{
			record.Int(int64(i)), record.Int(int64(i%200 + 1)),
			record.Float(float64(i%50 + 1)), record.Float(float64(i) * 1.5),
			record.Float(float64(i%11) / 100), record.Float(float64(i%9) / 100),
			record.Text("NRA"[i%3 : i%3+1]), record.Text("OF"[i%2 : i%2+1]), record.Int(int64(8000 + i%2500)),
			record.Text(instruct[i%len(instruct)]), record.Text(mode[i%len(mode)]),
		}, nil)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// scanSpan range-scans scanRowSpan primary keys from lo batch-wise and
// returns the rows seen.
func scanSpan(t *Table, batch *RowBatch, lo int) (int, error) {
	l, h := record.Int(int64(lo)), record.Int(int64(lo+scanRowSpan-1))
	it, err := t.RangeScan(0, &l, &h)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	rows := 0
	for {
		n, err := it.NextBatch(batch)
		if err != nil || n == 0 {
			return rows, err
		}
		rows += n
	}
}

func TestScanRowAllocs(t *testing.T) {
	tb := lineitemTable(t)
	for _, tc := range []struct {
		name  string
		cols  []int
		bound int
	}{
		{"all", nil, scanRowMaxAllocs},
		{"projected", scanRowProjection, scanRowProjectedMaxAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := NewRowBatch(DefaultBatchCapacity)
			batch.Cols = tc.cols
			lo := 1
			scan := func() {
				rows, err := scanSpan(tb, batch, lo)
				if err != nil || rows != scanRowSpan {
					t.Fatalf("scan from %d: %d rows, %v", lo, rows, err)
				}
				lo = 1 + (lo+996)%(scanRowTable-scanRowSpan)
			}
			scan()
			perRow := testing.AllocsPerRun(20, scan) / scanRowSpan
			t.Logf("%.3f allocs per scanned row", perRow)
			if perRow > float64(tc.bound) {
				t.Fatalf("%.3f allocs per scanned row, want at most %d", perRow, tc.bound)
			}
		})
	}
	if err := tb.mem.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPointReadAllocs is the allocation gate on the verified point read:
// at the latest state, GetAt(v, nil), and at a snapshot no writer has
// passed. Each bound is what a present key's read allocated before the
// latest-state search and the snapshot search became one (shardFor's key
// encoding is the extra allocation of a sharded table); an absent key's
// builds no tuple and allocates one fewer.
func TestPointReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the reader's hasher on purpose under the race detector")
	}
	for _, tc := range []struct {
		shards         int
		latest, pinned float64
	}{
		{1, 5, 6},
		{4, 6, 7},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			st := newStore(t, vmem.Config{})
			spec := itemsSpec()
			spec.Shards = tc.shards
			tb, err := st.CreateTable(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 500; i++ {
				mustInsert(t, tb, record.Tuple{record.Int(2 * i), record.Int(i % 7), record.Float(float64(i))})
			}
			snap := st.OpenSnapshot()
			defer snap.Close()
			for _, k := range []struct {
				name  string
				v     record.Value
				found bool
			}{{"present", record.Int(250), true}, {"absent", record.Int(251), false}} {
				for _, at := range []struct {
					name  string
					snap  *Snapshot
					bound float64
				}{{"latest", nil, tc.latest}, {"snapshot", snap, tc.pinned}} {
					var err error
					allocs := testing.AllocsPerRun(100, func() {
						var ev Evidence
						if _, ev, err = tb.GetAt(k.v, at.snap); err == nil && ev.Found != k.found {
							err = fmt.Errorf("found = %v", ev.Found)
						}
					})
					if err != nil {
						t.Fatalf("%s %s: %v", k.name, at.name, err)
					}
					t.Logf("%s %s: %.0f allocs", k.name, at.name, allocs)
					bound := at.bound
					if !k.found {
						bound--
					}
					if allocs > bound {
						t.Errorf("%s %s: %.0f allocs per point read, want at most %.0f", k.name, at.name, allocs, bound)
					}
				}
			}
		})
	}
}

// BenchmarkScanRow reports ns and allocations per verified scanned row,
// over the range scan wire_scan_analytic's statements run, building every
// column (cols=all) or three numeric ones (cols=3).
func BenchmarkScanRow(b *testing.B) {
	tb := lineitemTable(b)
	for _, bc := range []struct {
		name string
		cols []int
	}{{"cols=all", nil}, {"cols=3", scanRowProjection}} {
		b.Run(bc.name, func(b *testing.B) {
			batch := NewRowBatch(DefaultBatchCapacity)
			batch.Cols = bc.cols
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				n, err := scanSpan(tb, batch, 1+(i*997)%(scanRowTable-scanRowSpan))
				if err != nil {
					b.Fatal(err)
				}
				rows += n
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(rows), "allocs/row")
		})
	}
}
