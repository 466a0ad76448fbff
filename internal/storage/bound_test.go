package storage_test

import (
	"fmt"
	"strings"
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/storage"
	"veridb/internal/vmem"
	"veridb/internal/workload/tpcc"
)

// versionBound caps the MVCC state (retained versions plus live begin-seq
// entries) a store may hold with no snapshot pinned: what the last write to
// each shard left behind. It does not depend on how many transactions ran.
const versionBound = 64

// TestVersionStateBoundedWithoutPins drives TPC-C straight on storage and
// requires the writers to reclaim the versions they retire: with no pin the
// state stays under a constant however many transactions run, a pinned
// snapshot keeps reading exactly what it pinned while writers churn past
// it, and once it closes, one more write per shard brings the state back
// under the constant.
func TestVersionStateBoundedWithoutPins(t *testing.T) {
	mem, err := vmem.New(enclave.NewForTest(24), vmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(mem)
	tables, err := tpcc.CreateTables(st)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpcc.Config{Warehouses: 2, Customers: 5, Items: 50}
	if err := tpcc.Populate(tables, cfg, 1); err != nil {
		t.Fatal(err)
	}
	all := []*storage.Table{tables.Warehouse, tables.District, tables.Customer, tables.Item, tables.Stock,
		tables.Orders, tables.OrderLine, tables.NewOrder, tables.History}
	state := func() int {
		retained, begins, _ := st.VersionStats()
		return retained + begins
	}
	w := tpcc.NewWorker(tables, cfg, 0, 7)
	run := func(n int, check bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if got := state(); check && got > versionBound {
				t.Fatalf("after %d transactions with no pin: %d versions and begin seqs, want ≤ %d", i+1, got, versionBound)
			}
		}
	}
	run(20000, true)

	snap := st.OpenSnapshot()
	dump := func() string {
		t.Helper()
		var b strings.Builder
		for _, tb := range all {
			it, err := tb.SeqScanAt(snap)
			if err != nil {
				t.Fatal(err)
			}
			for {
				tup, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				fmt.Fprintln(&b, tb.Name(), tup)
			}
			it.Close()
		}
		return b.String()
	}
	before := dump()
	run(5000, false)
	if state() <= versionBound {
		t.Fatalf("a pinned snapshot held only %d versions and begin seqs across 5000 transactions", state())
	}
	if after := dump(); after != before {
		t.Fatal("reads at a pinned snapshot changed while writers reclaimed around it")
	}

	snap.Close()
	// Every TPC-C table has one shard: one rewrite of its first row is one
	// more write per shard.
	for _, tb := range all {
		it, err := tb.SeqScan()
		if err != nil {
			t.Fatal(err)
		}
		tup, ok, err := it.Next()
		if err == nil && ok {
			tup = tup.Clone()
		}
		it.Close()
		if err != nil || !ok {
			t.Fatalf("%s: first row ok=%v err=%v", tb.Name(), ok, err)
		}
		if err := tb.UpdateAt(tup[tb.PrimaryKeyColumn()], tup, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := state(); got > versionBound {
		t.Fatalf("after the pin closed and one write per shard: %d versions and begin seqs, want ≤ %d", got, versionBound)
	}
}
