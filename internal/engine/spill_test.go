package engine

import (
	"errors"
	"fmt"
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/record"
	"veridb/internal/storage"
	"veridb/internal/vmem"
)

func spillFixture(t *testing.T) (*storage.Store, *storage.Table) {
	t.Helper()
	mem, err := vmem.New(enclave.NewForTest(31), vmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(mem)
	tb, err := st.CreateTable(storage.TableSpec{
		Name: "src",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "payload", Type: record.TypeText},
		),
		PrimaryKey: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := tb.InsertAt(record.Tuple{record.Int(int64(i)), record.Text(fmt.Sprintf("p%d", i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return st, tb
}

func TestSpoolMatchesMaterialize(t *testing.T) {
	st, tb := spillFixture(t)
	sp := &Spool{Child: NewTableScan(tb, "src"), Store: st}
	m := &Materialize{Child: NewTableScan(tb, "src")}
	for round := 0; round < 3; round++ { // replays included
		got, err := Drain(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Drain(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(got) != 50 {
			t.Fatalf("round %d: %d vs %d rows", round, len(got), len(want))
		}
		for i := range got {
			if len(got[i]) != len(want[i]) || got[i][0].I != want[i][0].I || got[i][1].S != want[i][1].S {
				t.Fatalf("round %d row %d: %v vs %v", round, i, got[i], want[i])
			}
		}
	}
	if err := sp.Drop(); err != nil {
		t.Fatal(err)
	}
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatalf("spool lifecycle unbalanced the sets: %v", err)
	}
}

func TestSpoolSchemaAndRowOrder(t *testing.T) {
	st, tb := spillFixture(t)
	sp := &Spool{Child: NewTableScan(tb, "src"), Store: st}
	defer sp.Drop()
	if got := sp.Schema(); len(got) != 2 || got[0].Name != "id" {
		t.Fatalf("schema %v", got)
	}
	rows, err := Drain(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r[0].I != int64(i+1) {
			t.Fatalf("row %d out of spool order: %v", i, r)
		}
	}
}

// TestSpoolTamperDetected is the point of the extension: spilled
// intermediate state is itself in the verified set, so an adversary who
// corrupts a temp-table record is detected like any other tampering.
func TestSpoolTamperDetected(t *testing.T) {
	st, tb := spillFixture(t)
	sp := &Spool{Child: NewTableScan(tb, "src"), Store: st}
	if _, err := Drain(sp, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt a record in whichever page holds spooled rows: pick any
	// record and flip a byte via the adversary interface.
	mem := st.Memory()
	tampered := false
	for _, pid := range mem.PageIDs() {
		victim := -1
		var payload []byte
		mem.Slots(pid, func(slot int, rec []byte) bool {
			victim = slot
			payload = append([]byte(nil), rec...)
			return false
		})
		if victim >= 0 && len(payload) > 0 {
			payload[len(payload)-1] ^= 0xFF
			if mem.TamperRecord(pid, victim, payload) == nil {
				mem.Get(pid, victim) // mark touched
				tampered = true
				break
			}
		}
	}
	if !tampered {
		t.Fatal("no record to tamper")
	}
	if err := mem.VerifyAll(); !errors.Is(err, vmem.ErrTamperDetected) {
		t.Fatalf("spool tampering undetected: %v", err)
	}
}

func TestSpoolOnEmptyChild(t *testing.T) {
	st, _ := spillFixture(t)
	sp := &Spool{Child: &Values{Cols: Schema{{Name: "a", Type: record.TypeInt}}}, Store: st}
	defer sp.Drop()
	rows, err := Drain(sp, nil)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty spool: %v, %v", rows, err)
	}
}

// failAfter emits n rows, then fails. It simulates a child erroring
// mid-drain (verification failure, bad expression) while the spool's temp
// table is already half filled.
type failAfter struct {
	n    int
	seen int
}

func (f *failAfter) Schema() Schema { return Schema{{Name: "a", Type: record.TypeInt}} }
func (f *failAfter) Open() error    { f.seen = 0; return nil }
func (f *failAfter) Close() error   { return nil }
func (f *failAfter) NextBatch(dst *RowBatch) (int, error) {
	return storage.FillBatch(f.next, dst)
}
func (f *failAfter) next() (record.Tuple, bool, error) {
	if f.seen >= f.n {
		return nil, false, errors.New("child failed mid-drain")
	}
	f.seen++
	return record.Tuple{record.Int(int64(f.seen))}, true, nil
}

// countSpoolTables counts leftover __spool_* temp tables in the catalog.
func countSpoolTables(st *storage.Store) int {
	n := 0
	for _, name := range st.TableNames() {
		if len(name) >= 8 && name[:8] == "__spool_" {
			n++
		}
	}
	return n
}

// TestSpoolCleanupOnFillError pins the error-path cleanup: a child that
// fails mid-spill must not leave an orphaned half-filled temp table behind
// (its pages would stay in the verified set and bloat every later scan).
func TestSpoolCleanupOnFillError(t *testing.T) {
	st, _ := spillFixture(t)
	for _, batch := range []int{1, 8} { // the failure lands at and inside a batch boundary
		sp := &Spool{Child: &failAfter{n: 20}, Store: st, exec: &Exec{batchCap: batch}}
		if err := sp.Open(); err == nil {
			t.Fatalf("batch=%d: spool of failing child opened cleanly", batch)
		}
		if n := countSpoolTables(st); n != 0 {
			t.Fatalf("batch=%d: %d orphaned __spool_ tables after failed fill", batch, n)
		}
		// The spool must stay reusable: a later Open retries the fill.
		if sp.table != nil || sp.filled {
			t.Fatalf("batch=%d: spool kept stale fill state", batch)
		}
	}
	// The memory must still verify: registered-then-dropped pages left
	// balanced read/write sets.
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatalf("failed fill unbalanced the sets: %v", err)
	}
}

// TestSpoolReplayAcrossCapacities replays the same spool one row and seven
// rows at a time; the row-number column must be stripped identically.
func TestSpoolReplayAcrossCapacities(t *testing.T) {
	st, tb := spillFixture(t)
	sp := &Spool{Child: NewTableScan(tb, "src"), Store: st}
	defer sp.Drop()
	want, err := drainAt(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainAt(sp, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 50 {
		t.Fatalf("capacity 7 replay %d rows, capacity 1 %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != 2 || got[i][0].I != want[i][0].I || got[i][1].S != want[i][1].S {
			t.Fatalf("row %d: capacity 7 %v, capacity 1 %v", i, got[i], want[i])
		}
	}
}
