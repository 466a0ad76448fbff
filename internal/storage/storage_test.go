package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

func newStore(t testing.TB, cfg vmem.Config) *Store {
	t.Helper()
	mem, err := vmem.New(enclave.NewForTest(77), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(mem)
}

func itemsSpec() TableSpec {
	return TableSpec{
		Name: "items",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "count", Type: record.TypeInt},
			record.Column{Name: "price", Type: record.TypeFloat},
		),
		PrimaryKey:   0,
		ChainColumns: []int{1}, // secondary chain on count
	}
}

func mustInsert(t *testing.T, tb *Table, tup record.Tuple) {
	t.Helper()
	if err := tb.InsertAt(tup, nil); err != nil {
		t.Fatalf("Insert(%v): %v", tup, err)
	}
}

func drain(t *testing.T, sc Iterator) []record.Tuple {
	t.Helper()
	var out []record.Tuple
	for {
		tup, ok, err := sc.Next()
		if err != nil {
			t.Fatalf("scan error: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, tup)
	}
}

func TestCreateTableValidation(t *testing.T) {
	s := newStore(t, vmem.Config{})
	if _, err := s.CreateTable(TableSpec{Name: "t"}); err == nil {
		t.Fatal("empty schema accepted")
	}
	spec := itemsSpec()
	spec.PrimaryKey = 9
	if _, err := s.CreateTable(spec); err == nil {
		t.Fatal("out-of-range primary key accepted")
	}
	spec = itemsSpec()
	if _, err := s.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(spec); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := s.Table("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: %v", err)
	}
	if got := s.TableNames(); len(got) != 1 || got[0] != "items" {
		t.Fatalf("TableNames = %v", got)
	}
}

func TestInsertSearchDelete(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	mustInsert(t, tb, record.Tuple{record.Int(1), record.Int(100), record.Float(9.5)})
	mustInsert(t, tb, record.Tuple{record.Int(3), record.Int(50), record.Float(1.0)})

	tup, ev, err := tb.Get(record.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Found || tup == nil || tup[1].I != 100 {
		t.Fatalf("found=%v tup=%v", ev.Found, tup)
	}
	// Absence proof: 2 lies strictly between keys 1 and 3.
	tup, ev, err = tb.Get(record.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Found || tup != nil {
		t.Fatalf("phantom row: %v", tup)
	}
	k1, _ := record.KeyOf(record.Int(1))
	k3, _ := record.KeyOf(record.Int(3))
	if !ev.Key.Equal(k1) || !ev.NKey.Equal(k3) {
		t.Fatalf("absence evidence ⟨%v,%v⟩, want ⟨1,3⟩", ev.Key, ev.NKey)
	}
	// Absence below minimum: evidence is the ⊥ sentinel.
	_, ev, err = tb.Get(record.Int(0))
	if err != nil || ev.Found {
		t.Fatalf("below-min: found=%v err=%v", ev.Found, err)
	}
	if ev.Key.Kind != record.KindBottom {
		t.Fatalf("below-min evidence key %v, want ⊥", ev.Key)
	}
	// Absence above maximum: evidence nKey is ⊤ (paper Example 4.3).
	_, ev, err = tb.Get(record.Int(99))
	if err != nil || ev.Found {
		t.Fatalf("above-max: found=%v err=%v", ev.Found, err)
	}
	if ev.NKey.Kind != record.KindTop {
		t.Fatalf("above-max evidence nKey %v, want ⊤", ev.NKey)
	}

	if err := tb.DeleteAt(record.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, ev, _ := tb.Get(record.Int(1)); ev.Found {
		t.Fatal("deleted row still found")
	}
	if err := tb.DeleteAt(record.Int(1), nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if tb.RowCount() != 1 {
		t.Fatalf("RowCount = %d", tb.RowCount())
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePrimaryKey(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	mustInsert(t, tb, record.Tuple{record.Int(1), record.Int(1), record.Float(1)})
	err := tb.InsertAt(record.Tuple{record.Int(1), record.Int(2), record.Float(2)}, nil)
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if tb.RowCount() != 1 {
		t.Fatalf("RowCount = %d after rejected duplicate", tb.RowCount())
	}
}

func TestFullScanOrdered(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	perm := rand.New(rand.NewSource(2)).Perm(200)
	for _, i := range perm {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(int64(i % 7)), record.Float(float64(i))})
	}
	sc, err := tb.NewScan(0, ScanBounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, sc)
	if len(rows) != 200 {
		t.Fatalf("scan returned %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d has id %d: scan out of key order", i, r[0].I)
		}
	}
	if sc.Visited() < 200 {
		t.Fatalf("Visited = %d", sc.Visited())
	}
}

func TestRangeScanBoundaries(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	for i := 10; i <= 80; i += 10 {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(1), record.Float(0)})
	}
	cases := []struct {
		lo, hi int64
		want   []int64
	}{
		{25, 55, []int64{30, 40, 50}},
		{10, 80, []int64{10, 20, 30, 40, 50, 60, 70, 80}}, // exact ends
		{30, 30, []int64{30}},                             // point range
		{81, 99, nil},                                     // above max
		{1, 9, nil},                                       // below min
		{35, 36, nil},                                     // empty interior
	}
	for _, c := range cases {
		lo, hi := record.Int(c.lo), record.Int(c.hi)
		sc, err := tb.RangeScan(0, &lo, &hi)
		if err != nil {
			t.Fatal(err)
		}
		rows := drain(t, sc)
		var got []int64
		for _, r := range rows {
			got = append(got, r[0].I)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("range [%d,%d] = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestScanEmptyTable(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	sc, err := tb.NewScan(0, ScanBounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, sc); len(rows) != 0 {
		t.Fatalf("empty table scan returned %d rows", len(rows))
	}
	// Secondary chain too.
	lo, hi := record.Int(0), record.Int(100)
	sc, err = tb.RangeScan(1, &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, sc); len(rows) != 0 {
		t.Fatalf("empty secondary scan returned %d rows", len(rows))
	}
}

func TestSecondaryChainWithDuplicates(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	// counts: 5 appears three times, 7 twice, 9 once
	data := map[int64]int64{1: 5, 2: 7, 3: 5, 4: 9, 5: 5, 6: 7}
	for id, cnt := range data {
		mustInsert(t, tb, record.Tuple{record.Int(id), record.Int(cnt), record.Float(0)})
	}
	lo, hi := record.Int(5), record.Int(7)
	sc, err := tb.RangeScan(1, &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, sc)
	var ids []int64
	for _, r := range rows {
		if r[1].I < 5 || r[1].I > 7 {
			t.Fatalf("out-of-range count %d", r[1].I)
		}
		ids = append(ids, r[0].I)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if fmt.Sprint(ids) != "[1 2 3 5 6]" {
		t.Fatalf("secondary range ids = %v", ids)
	}
	// Values come out ordered by (count, id).
	var prevCnt, prevID int64 = -1, -1
	for _, r := range rows {
		if r[1].I < prevCnt || (r[1].I == prevCnt && r[0].I <= prevID) {
			t.Fatalf("secondary scan out of composite order: %v", rows)
		}
		prevCnt, prevID = r[1].I, r[0].I
	}
}

func TestNullSecondaryValueSkipsChain(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	mustInsert(t, tb, record.Tuple{record.Int(1), record.Null(record.TypeInt), record.Float(0)})
	mustInsert(t, tb, record.Tuple{record.Int(2), record.Int(10), record.Float(0)})
	lo, hi := record.Int(0), record.Int(100)
	sc, err := tb.RangeScan(1, &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, sc)
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Fatalf("null-valued row leaked into secondary chain: %v", rows)
	}
	// But it is reachable by primary key.
	if _, ev, _ := tb.Get(record.Int(1)); !ev.Found {
		t.Fatal("null-secondary row lost")
	}
	// And deletable without chain corruption.
	if err := tb.DeleteAt(record.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateInPlaceAndKeyChange(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	mustInsert(t, tb, record.Tuple{record.Int(1), record.Int(10), record.Float(5)})
	mustInsert(t, tb, record.Tuple{record.Int(2), record.Int(20), record.Float(6)})

	// Data-only update: price changes, chains untouched.
	if err := tb.UpdateAt(record.Int(1), record.Tuple{record.Int(1), record.Int(10), record.Float(99)}, nil); err != nil {
		t.Fatal(err)
	}
	tup, _, _ := tb.Get(record.Int(1))
	if tup[2].F != 99 {
		t.Fatalf("in-place update lost: %v", tup)
	}

	// Secondary-chain key change: count 10 → 25.
	if err := tb.UpdateAt(record.Int(1), record.Tuple{record.Int(1), record.Int(25), record.Float(99)}, nil); err != nil {
		t.Fatal(err)
	}
	lo, hi := record.Int(25), record.Int(25)
	sc, _ := tb.RangeScan(1, &lo, &hi)
	if rows := drain(t, sc); len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("re-chained row not found at count=25: %v", rows)
	}
	lo, hi = record.Int(10), record.Int(10)
	sc, _ = tb.RangeScan(1, &lo, &hi)
	if rows := drain(t, sc); len(rows) != 0 {
		t.Fatalf("stale chain entry at count=10: %v", rows)
	}

	// Primary-key change.
	if err := tb.UpdateAt(record.Int(1), record.Tuple{record.Int(7), record.Int(25), record.Float(99)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ev, _ := tb.Get(record.Int(1)); ev.Found {
		t.Fatal("old pk still present")
	}
	if _, ev, _ := tb.Get(record.Int(7)); !ev.Found {
		t.Fatal("new pk missing")
	}
	if err := tb.UpdateAt(record.Int(404), record.Tuple{record.Int(8), record.Int(1), record.Float(1)}, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing row: %v", err)
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateGrowRelocatesAcrossPages(t *testing.T) {
	// Small pages force relocation when a TEXT value grows.
	s := newStore(t, vmem.Config{PageSize: 512})
	spec := TableSpec{
		Name: "docs",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "body", Type: record.TypeText},
		),
		PrimaryKey: 0,
	}
	tb, _ := s.CreateTable(spec)
	for i := 0; i < 8; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Text(strings.Repeat("x", 40))})
	}
	big := strings.Repeat("y", 300)
	if err := tb.UpdateAt(record.Int(3), record.Tuple{record.Int(3), record.Text(big)}, nil); err != nil {
		t.Fatal(err)
	}
	tup, _, err := tb.Get(record.Int(3))
	if err != nil || tup[1].S != big {
		t.Fatalf("relocated row wrong: %v, %v", tup, err)
	}
	// Chain still walks completely.
	sc, _ := tb.NewScan(0, ScanBounds{}, nil)
	if rows := drain(t, sc); len(rows) != 8 {
		t.Fatalf("scan after relocation: %d rows", len(rows))
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestTamperAfterRelocationDetected grows a row until UpdateAt relocates it
// to another page (rewrite's delete and re-insert), then tampers with the
// relocated cell behind the protected interface: the record must still be
// in the verified set at its new home.
func TestTamperAfterRelocationDetected(t *testing.T) {
	s := newStore(t, vmem.Config{PageSize: 512, FullScan: true})
	tb, err := s.CreateTable(TableSpec{
		Name: "docs",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "body", Type: record.TypeText},
		),
		PrimaryKey: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Text(strings.Repeat("x", 40))})
	}
	_, _, before, _ := linkLoc(tb, 3)
	if err := tb.UpdateAt(record.Int(3), record.Tuple{record.Int(3), record.Text(strings.Repeat("y", 300))}, nil); err != nil {
		t.Fatal(err)
	}
	_, _, after, _ := linkLoc(tb, 3)
	if after.Page == before.Page {
		t.Fatalf("row stayed on page %d: the update did not relocate it", before.Page)
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatalf("clean relocation failed verification: %v", err)
	}
	raw := bytes.Clone(rawRecord(t, tb, after))
	raw[len(raw)-1] ^= 0xff // a body byte
	if err := s.Memory().TamperRecord(after.Page, after.Slot, raw); err != nil {
		t.Fatal(err)
	}
	if err := s.Memory().VerifyAll(); !errors.Is(err, vmem.ErrTamperDetected) {
		t.Fatalf("tamper after relocation undetected: %v", err)
	}
}

func TestDeleteAllThenReinsert(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	for i := 0; i < 50; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(int64(i)), record.Float(0)})
	}
	for i := 0; i < 50; i++ {
		if err := tb.DeleteAt(record.Int(int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	sc, _ := tb.NewScan(0, ScanBounds{}, nil)
	if rows := drain(t, sc); len(rows) != 0 {
		t.Fatalf("%d rows after deleting all", len(rows))
	}
	// Chains reduced to ⟨⊥,⊤⟩: reinsertion works.
	mustInsert(t, tb, record.Tuple{record.Int(5), record.Int(5), record.Float(0)})
	if _, ev, _ := tb.Get(record.Int(5)); !ev.Found {
		t.Fatal("reinsert after full delete failed")
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestTextPrimaryKeys(t *testing.T) {
	s := newStore(t, vmem.Config{})
	spec := TableSpec{
		Name: "users",
		Schema: record.NewSchema(
			record.Column{Name: "name", Type: record.TypeText},
			record.Column{Name: "age", Type: record.TypeInt},
		),
		PrimaryKey: 0,
	}
	tb, _ := s.CreateTable(spec)
	names := []string{"mallory", "alice", "bob", "eve", "carol"}
	for i, n := range names {
		mustInsert(t, tb, record.Tuple{record.Text(n), record.Int(int64(20 + i))})
	}
	sc, _ := tb.NewScan(0, ScanBounds{}, nil)
	rows := drain(t, sc)
	var got []string
	for _, r := range rows {
		got = append(got, r[0].S)
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("text scan order %v", got)
	}
	lo, hi := record.Text("b"), record.Text("d")
	sc, _ = tb.RangeScan(0, &lo, &hi)
	rows = drain(t, sc)
	if len(rows) != 2 || rows[0][0].S != "bob" || rows[1][0].S != "carol" {
		t.Fatalf("text range = %v", rows)
	}
}

func TestEvilIndexDetected(t *testing.T) {
	// A compromised host can corrupt the untrusted index; the access
	// method must refuse to return unverifiable results (§5.2: "the
	// untrusted index may return a tampered (page, index) pair").
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	for i := 0; i < 10; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i * 10)), record.Int(1), record.Float(0)})
	}
	// Redirect key 50's index entry at key 20's record.
	k50, _ := record.KeyOf(record.Int(50))
	k20, _ := record.KeyOf(record.Int(20))
	loc20, _ := tb.shards[0].chains[0].Get(k20.Encode())
	tb.shards[0].chains[0].Set(k50.Encode(), loc20)

	if _, _, err := tb.Get(record.Int(50)); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("lying index not detected on point search: %v", err)
	}
	// Range scans crossing the corrupted entry must fail too.
	lo, hi := record.Int(30), record.Int(70)
	sc, err := tb.RangeScan(0, &lo, &hi)
	if err == nil {
		for {
			if _, ok, e := sc.Next(); e != nil {
				err = e
				break
			} else if !ok {
				break
			}
		}
	}
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("lying index not detected on scan: %v", err)
	}
}

func TestEvilIndexHidingKeyDetected(t *testing.T) {
	// Deleting an index entry (hiding a row) must not let the server
	// return a false absence proof: the chain evidence gives it away.
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	for _, id := range []int64{10, 20, 30} {
		mustInsert(t, tb, record.Tuple{record.Int(id), record.Int(1), record.Float(0)})
	}
	k20, _ := record.KeyOf(record.Int(20))
	tb.shards[0].chains[0].Delete(k20.Encode())
	_, _, err := tb.Get(record.Int(20))
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("hidden row produced %v; want verification failure", err)
	}
}

func TestDropTableFreesPages(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	for i := 0; i < 100; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(1), record.Float(0)})
	}
	alive := s.Memory().Stats().PagesAlive
	if alive == 0 {
		t.Fatal("no pages allocated")
	}
	if err := s.DropTable("items"); err != nil {
		t.Fatal(err)
	}
	if got := s.Memory().Stats().PagesAlive; got != 0 {
		t.Fatalf("PagesAlive = %d after drop", got)
	}
	if err := s.DropTable("items"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("double drop: %v", err)
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomWorkloadAgainstShadow runs a mixed workload against a shadow
// map under several memory configurations, then checks scans, point
// lookups and memory verification all agree.
func TestRandomWorkloadAgainstShadow(t *testing.T) {
	cfgs := map[string]vmem.Config{
		"default":     {},
		"metadata":    {VerifyMetadata: true},
		"partitioned": {Partitions: 8},
		"small-pages": {PageSize: 1024},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			s := newStore(t, cfg)
			tb, err := s.CreateTable(itemsSpec())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			shadow := map[int64][2]int64{} // id -> (count, priceBits)
			for op := 0; op < 2500; op++ {
				id := int64(rng.Intn(300))
				switch rng.Intn(4) {
				case 0, 1:
					cnt := int64(rng.Intn(20))
					tup := record.Tuple{record.Int(id), record.Int(cnt), record.Float(float64(id))}
					if _, exists := shadow[id]; exists {
						if err := tb.UpdateAt(record.Int(id), tup, nil); err != nil {
							t.Fatalf("op %d update: %v", op, err)
						}
					} else if err := tb.InsertAt(tup, nil); err != nil {
						t.Fatalf("op %d insert: %v", op, err)
					}
					shadow[id] = [2]int64{cnt, id}
				case 2:
					_, exists := shadow[id]
					if !exists {
						if err := tb.DeleteAt(record.Int(id), nil); !errors.Is(err, ErrNotFound) {
							t.Fatalf("op %d delete missing: %v", op, err)
						}
					} else if err := tb.DeleteAt(record.Int(id), nil); err != nil {
						t.Fatalf("op %d delete: %v", op, err)
					}
					delete(shadow, id)
				case 3:
					tup, ev, err := tb.Get(record.Int(id))
					if err != nil {
						t.Fatalf("op %d search: %v", op, err)
					}
					want, exists := shadow[id]
					if ev.Found != exists {
						t.Fatalf("op %d: found=%v exists=%v", op, ev.Found, exists)
					}
					if exists && tup[1].I != want[0] {
						t.Fatalf("op %d: count %d want %d", op, tup[1].I, want[0])
					}
				}
				if op%700 == 350 {
					if err := s.Memory().VerifyAll(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			// Full scan agrees with the shadow exactly.
			sc, _ := tb.NewScan(0, ScanBounds{}, nil)
			rows := drain(t, sc)
			if len(rows) != len(shadow) {
				t.Fatalf("scan %d rows, shadow %d", len(rows), len(shadow))
			}
			for _, r := range rows {
				want, ok := shadow[r[0].I]
				if !ok || r[1].I != want[0] {
					t.Fatalf("scan row %v disagrees with shadow %v", r, want)
				}
			}
			// Secondary chain covers exactly the live rows as well.
			lo, hi := record.Int(0), record.Int(19)
			sc, _ = tb.RangeScan(1, &lo, &hi)
			if rows := drain(t, sc); len(rows) != len(shadow) {
				t.Fatalf("secondary scan %d rows, shadow %d", len(rows), len(shadow))
			}
			if err := s.Memory().VerifyAll(); err != nil {
				t.Fatal(err)
			}
			if tb.RowCount() != len(shadow) {
				t.Fatalf("RowCount %d, shadow %d", tb.RowCount(), len(shadow))
			}
		})
	}
}

func TestEvidenceString(t *testing.T) {
	ev := Evidence{Table: "t", Chain: 0, Key: record.Bottom(), NKey: record.Top(), Found: false}
	if s := ev.String(); !strings.Contains(s, "absence") {
		t.Fatalf("String() = %q", s)
	}
	ev.Found = true
	if s := ev.String(); !strings.Contains(s, "presence") {
		t.Fatalf("String() = %q", s)
	}
}

func TestScannerCloseReleasesLock(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	mustInsert(t, tb, record.Tuple{record.Int(1), record.Int(1), record.Float(0)})
	sc, err := tb.NewScan(0, ScanBounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc.Close()
	sc.Close() // idempotent
	// Writers proceed after close.
	mustInsert(t, tb, record.Tuple{record.Int(2), record.Int(2), record.Float(0)})
}
