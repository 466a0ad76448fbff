package storage

import (
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

func TestPRFCountPerOp(t *testing.T) {
	mem, _ := vmem.New(enclave.NewForTest(1), vmem.Config{})
	st := NewStore(mem)
	tab, _ := st.CreateTable(TableSpec{
		Name: "kv",
		Schema: record.NewSchema(
			record.Column{Name: "k", Type: record.TypeInt},
			record.Column{Name: "v", Type: record.TypeText},
		),
		PrimaryKey: 0,
	})
	val := record.Text(string(make([]byte, 500)))
	for i := 1; i <= 1000; i++ {
		tab.Insert(record.Tuple{record.Int(int64(i) * 2), val})
	}
	// Pin the §6.1 cost model: the PRF evaluations per operation are the
	// dominant verification overhead, so an accidental extra tracked
	// access is a performance regression this test catches.
	count := func(name string, want uint64, f func()) {
		t.Helper()
		before := mem.Stats().PRFEvals
		f()
		if got := mem.Stats().PRFEvals - before; got != want {
			t.Errorf("%s: %d PRF evaluations, want %d", name, got, want)
		}
	}
	// Get: record read + virtual write-back (Alg. 1).
	count("get", 2, func() { tab.Get(record.Int(500)) })
	// Insert: predecessor read (2) + relink write (2) + new cell (1).
	count("insert", 5, func() { tab.Insert(record.Tuple{record.Int(501), val}) })
	// Delete: record read (2) + predecessor read+relink (4) + read-out (1).
	count("delete", 7, func() { tab.Delete(record.Int(501)) })
	// Update in place: record read (2) + rewrite (2).
	count("update", 4, func() { tab.Update(record.Int(500), record.Tuple{record.Int(500), val}) })
	// Absence probe costs the same as a hit.
	count("get-absent", 2, func() { tab.Get(record.Int(501)) })
}
