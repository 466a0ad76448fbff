package storage

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"veridb/internal/record"
	"veridb/internal/vmem"
)

// The scanner reuses one record-image buffer, one decode scratch and one
// hasher for the whole scan, and on a versioned table some of the records
// it walks are history images shared with every other snapshot reader.
// These tests pin who owns what: a row handed up in batch k is the
// consumer's, whatever the scanner, later batches or a writer do next.

func ownedSpec(shards int) TableSpec {
	return TableSpec{
		Name: "owned",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "ver", Type: record.TypeInt},
			record.Column{Name: "txt", Type: record.TypeText},
			record.Column{Name: "grp", Type: record.TypeText},
		),
		PrimaryKey: 0,
		Shards:     shards,
	}
}

func ownedRow(id, ver int64) record.Tuple {
	return record.Tuple{
		record.Int(id), record.Int(ver),
		record.Text(fmt.Sprintf("row-%d-v%d-%s", id, ver, "padding-so-images-differ-in-length"[:id%30])),
		record.Text(fmt.Sprintf("group-%02d", id%7)),
	}
}

func TestScannedRowsOwnTheirMemory(t *testing.T) {
	const rows = 600
	for _, shards := range []int{1, 4} {
		for _, capacity := range []int{1, 256} {
			t.Run(fmt.Sprintf("shards=%d/cap=%d", shards, capacity), func(t *testing.T) {
				s := newStore(t, vmem.Config{Partitions: 4})
				tb, err := s.CreateTable(ownedSpec(shards))
				if err != nil {
					t.Fatal(err)
				}
				for id := int64(0); id < rows; id++ {
					mustInsert(t, tb, ownedRow(id, 0))
				}
				snap := s.OpenSnapshot()
				defer snap.Close()

				// The writer retires a version of every scanned key, several
				// times over, while the scan below is in flight: much of what
				// the scan resolves is then a shared history image.
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ver := int64(1); ver <= 3; ver++ {
						for id := int64(0); id < rows; id++ {
							if err := tb.UpdateAt(record.Int(id), ownedRow(id, ver), nil); err != nil {
								t.Errorf("update %d to v%d: %v", id, ver, err)
								return
							}
						}
					}
				}()

				scan := func() ([]record.Tuple, []string) {
					it, err := tb.SeqScanAt(snap)
					if err != nil {
						t.Fatal(err)
					}
					batch := NewRowBatch(capacity)
					var kept []record.Tuple
					var seen []string // each row as it read when its batch arrived
					for {
						n, err := it.NextBatch(batch)
						if err != nil {
							t.Fatal(err)
						}
						if n == 0 {
							break
						}
						for i := 0; i < n; i++ {
							kept = append(kept, batch.Row(i))
							seen = append(seen, fmt.Sprint(batch.Row(i)))
						}
					}
					it.Close()
					return kept, seen
				}
				kept, seen := scan()
				wg.Wait()
				if len(kept) != rows {
					t.Fatalf("snapshot scan returned %d rows, want %d", len(kept), rows)
				}
				for i, r := range kept {
					if got := fmt.Sprint(r); got != seen[i] {
						t.Fatalf("row %d changed after its batch was refilled: %s, was %s", i, got, seen[i])
					}
					if want := fmt.Sprint(ownedRow(int64(i), 0)); seen[i] != want {
						t.Fatalf("row %d at the snapshot: %s, want %s", i, seen[i], want)
					}
				}
				// Scribbling over every returned tuple must reach neither the
				// version history nor the live records: the same snapshot
				// reads the same rows again.
				for _, r := range kept {
					for j := range r {
						r[j] = record.Text("scribbled")
					}
				}
				_, again := scan()
				for i := range again {
					if again[i] != seen[i] {
						t.Fatalf("row %d after the consumer overwrote its tuple: %s, want %s", i, again[i], seen[i])
					}
				}
				if err := tb.mem.VerifyAll(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestScannerMemoryIsDisjointFromRows looks at the addresses: no emitted
// tuple's values or text lie inside the scanner's record-image buffer, two
// rows never share a tuple or a string, and the merge's kept key is a copy
// of the stream's.
func TestScannerMemoryIsDisjointFromRows(t *testing.T) {
	tb, err := newStore(t, vmem.Config{Partitions: 4}).CreateTable(ownedSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 50; id++ {
		mustInsert(t, tb, ownedRow(id, 0))
	}
	sc, err := tb.shards[0].newScan(0, ScanBounds{}, tb.store.Watermark())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	within := func(p unsafe.Pointer, buf []byte) bool {
		if cap(buf) == 0 {
			return false
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf[:cap(buf)])))
		return uintptr(p) >= lo && uintptr(p) < lo+uintptr(cap(buf))
	}
	batch := NewRowBatch(7)
	texts, tuples := map[unsafe.Pointer]int{}, map[unsafe.Pointer]int{}
	row := 0
	for {
		n, err := sc.NextBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i, row = i+1, row+1 {
			tup := batch.Row(i)
			if within(unsafe.Pointer(unsafe.SliceData(tup)), sc.rd.img) {
				t.Fatalf("row %d: tuple lies in the scanner's image buffer", row)
			}
			if prev, dup := tuples[unsafe.Pointer(unsafe.SliceData(tup))]; dup {
				t.Fatalf("rows %d and %d share a tuple", prev, row)
			}
			tuples[unsafe.Pointer(unsafe.SliceData(tup))] = row
			for _, v := range tup {
				if v.Type != record.TypeText {
					continue
				}
				p := unsafe.Pointer(unsafe.StringData(v.S))
				if within(p, sc.rd.img) {
					t.Fatalf("row %d: text %q lies in the scanner's image buffer", row, v.S)
				}
				if prev, dup := texts[p]; dup && prev != row {
					t.Fatalf("rows %d and %d share text memory", prev, row)
				}
				texts[p] = row
			}
		}
	}
	if row != 50 {
		t.Fatalf("scanned %d rows, want 50", row)
	}

	// The merge keeps the key it emitted last across its streams' advances.
	tb4, err := newStore(t, vmem.Config{Partitions: 4}).CreateTable(ownedSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 50; id++ {
		mustInsert(t, tb4, ownedRow(id, 0))
	}
	snap := tb4.store.OpenSnapshot()
	defer snap.Close()
	it, err := tb4.NewScan(0, ScanBounds{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	m := it.(*mergeIterator)
	for id := int64(0); ; id++ {
		tup, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if want := record.MustKeyOf(record.Int(id)); tup[0].I != id || !m.last.Equal(want) {
			t.Fatalf("merged row %d: id %d, kept key %v", id, tup[0].I, m.last)
		}
		for _, sc := range m.scs {
			if len(m.last.B) > 0 && within(unsafe.Pointer(unsafe.SliceData(m.last.B)), sc.key.B) {
				t.Fatalf("merged row %d: the kept key aliases a stream's key buffer", id)
			}
		}
	}
}
