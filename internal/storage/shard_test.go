package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

// goldenChecksum pins the resident set-hash digest of goldenWorkload as it
// stood before tables grew shards. TableShards == 1 (or 0, the default)
// must keep the memory image bit-for-bit identical to the unsharded
// layout: same page IDs, same chain records, same digests.
const goldenChecksum = "a2dda0412ade81dc"

const (
	goldenRangeRows = 269
	goldenTotalRows = 428
)

// goldenWorkload replays a fixed insert/search/update/scan/delete mix and
// returns the range-scan row count, the final full-scan row count and the
// resident checksum. Deletes run last so page placement never consults the
// (map-ordered) spacious set and the digest stays deterministic.
func goldenWorkload(t *testing.T, shards int) (rangeRows, totalRows int, checksum string) {
	t.Helper()
	mem, err := vmem.New(enclave.NewForTest(42), vmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(mem)
	tb, err := s.CreateTable(TableSpec{
		Name: "golden",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "cat", Type: record.TypeInt},
			record.Column{Name: "val", Type: record.TypeFloat},
		),
		PrimaryKey:   0,
		ChainColumns: []int{1},
		Shards:       shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		k := int64((i * 37) % 1000)
		err := tb.Insert(record.Tuple{
			record.Int(k), record.Int(k % 13), record.Float(float64(i) * 1.5),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 3 {
		k := int64((i * 37) % 1000)
		if _, _, err := tb.Get(record.Int(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 5 {
		k := int64((i * 37) % 1000)
		err := tb.Update(record.Int(k), record.Tuple{
			record.Int(k), record.Int(k % 13), record.Float(float64(i) + 0.25),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := record.Int(3), record.Int(9)
	sc, err := tb.RangeScan(1, &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	rangeRows = len(drain(t, sc))
	for i := 0; i < 500; i += 7 {
		k := int64((i * 37) % 1000)
		if err := tb.Delete(record.Int(k)); err != nil {
			t.Fatal(err)
		}
	}
	sc, err = tb.NewScan(0, ScanBounds{})
	if err != nil {
		t.Fatal(err)
	}
	totalRows = len(drain(t, sc))
	if err := mem.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	return rangeRows, totalRows, fmt.Sprint(mem.ResidentChecksum())
}

// TestSingleShardBitIdentical pins the refactor's compatibility promise:
// with one shard (explicit or defaulted) the sharded table produces the
// exact pre-sharding memory image, digest and all.
func TestSingleShardBitIdentical(t *testing.T) {
	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rangeRows, totalRows, sum := goldenWorkload(t, shards)
			if rangeRows != goldenRangeRows {
				t.Errorf("range scan rows = %d, want %d", rangeRows, goldenRangeRows)
			}
			if totalRows != goldenTotalRows {
				t.Errorf("full scan rows = %d, want %d", totalRows, goldenTotalRows)
			}
			if sum != goldenChecksum {
				t.Errorf("resident checksum = %s, want golden %s", sum, goldenChecksum)
			}
		})
	}
}

// TestShardedResultsMatchUnsharded runs the golden workload at several
// shard counts: the memory image differs (different pages, different
// chains) but every query answer must be identical.
func TestShardedResultsMatchUnsharded(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rangeRows, totalRows, _ := goldenWorkload(t, shards)
			if rangeRows != goldenRangeRows {
				t.Errorf("range scan rows = %d, want %d", rangeRows, goldenRangeRows)
			}
			if totalRows != goldenTotalRows {
				t.Errorf("full scan rows = %d, want %d", totalRows, goldenTotalRows)
			}
		})
	}
}

func shardedSpec(shards int) TableSpec {
	spec := itemsSpec()
	spec.Shards = shards
	return spec
}

// TestShardedScanOrderAndStitch checks that cross-shard merges emit rows
// in global key order: a scan over a 4-shard table is indistinguishable
// from a scan over a single chain.
func TestShardedScanOrderAndStitch(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, err := s.CreateTable(shardedSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if tb.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", tb.ShardCount())
	}
	perm := rand.New(rand.NewSource(5)).Perm(300)
	for _, i := range perm {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(int64(i % 11)), record.Float(float64(i))})
	}
	// Every shard should own some keys under FNV routing.
	for i, sh := range tb.shards {
		if sh.rows == 0 {
			t.Fatalf("shard %d owns no rows", i)
		}
	}
	sc, err := tb.NewScan(0, ScanBounds{})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, sc)
	if len(rows) != 300 {
		t.Fatalf("merged scan returned %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d has id %d: merged scan out of key order", i, r[0].I)
		}
	}
	if sc.Visited() < 300 {
		t.Fatalf("Visited = %d", sc.Visited())
	}
	// Secondary-chain range scans stitch in (value, pk) composite order.
	lo, hi := record.Int(3), record.Int(5)
	sc2, err := tb.RangeScan(1, &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	rows = drain(t, sc2)
	want := 0
	for i := 0; i < 300; i++ {
		if m := i % 11; m >= 3 && m <= 5 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("secondary range returned %d rows, want %d", len(rows), want)
	}
	var prevCnt, prevID int64 = -1, -1
	for _, r := range rows {
		if r[1].I < prevCnt || (r[1].I == prevCnt && r[0].I <= prevID) {
			t.Fatal("merged secondary scan out of composite order")
		}
		prevCnt, prevID = r[1].I, r[0].I
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedAbsenceProofs checks Def 4.2 absence evidence survives
// sharding: the shard owning a missing key supplies the ⟨key,nKey⟩ gap.
func TestShardedAbsenceProofs(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, err := s.CreateTable(shardedSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i += 2 {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(1), record.Float(0)})
	}
	for i := 1; i < 100; i += 2 {
		tup, ev, err := tb.Get(record.Int(int64(i)))
		if err != nil {
			t.Fatalf("absent key %d: %v", i, err)
		}
		if ev.Found || tup != nil {
			t.Fatalf("phantom row for key %d: %v", i, tup)
		}
		// The gap comes from the owning shard's local chain: a valid
		// absence proof brackets the key without containing it.
		kq, _ := record.KeyOf(record.Int(int64(i)))
		if ev.Key.Equal(kq) || ev.NKey.Equal(kq) {
			t.Fatalf("absence evidence for %d contains the key itself: %v", i, ev)
		}
	}
	for i := 0; i < 100; i += 2 {
		_, ev, err := tb.Get(record.Int(int64(i)))
		if err != nil || !ev.Found {
			t.Fatalf("present key %d: found=%v err=%v", i, ev.Found, err)
		}
	}
}

// TestConcurrentDMLAcrossShards drives parallel writers over a sharded
// table (satellite: concurrency test under -race), then compares the
// final state against a serially-computed oracle and verifies memory.
func TestConcurrentDMLAcrossShards(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, err := s.CreateTable(shardedSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers      = 8
		opsPerWorker = 300
		keySpace     = 1000
	)
	// Each worker owns a disjoint key slice, so the final state is
	// deterministic and a serial oracle can replay it per worker.
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(w * keySpace)
			live := map[int64]bool{}
			for op := 0; op < opsPerWorker; op++ {
				k := base + int64(rng.Intn(keySpace))
				switch {
				case !live[k]:
					if err := tb.Insert(record.Tuple{record.Int(k), record.Int(k % 17), record.Float(float64(op))}); err != nil {
						errs <- fmt.Errorf("worker %d insert %d: %w", w, k, err)
						return
					}
					live[k] = true
				case rng.Intn(3) == 0:
					if err := tb.Delete(record.Int(k)); err != nil {
						errs <- fmt.Errorf("worker %d delete %d: %w", w, k, err)
						return
					}
					delete(live, k)
				default:
					if err := tb.Update(record.Int(k), record.Tuple{record.Int(k), record.Int(k % 17), record.Float(float64(-op))}); err != nil {
						errs <- fmt.Errorf("worker %d update %d: %w", w, k, err)
						return
					}
				}
				// Interleave reads: point lookups and short range scans
				// run against shards other writers are mutating.
				if op%25 == 0 {
					if _, _, err := tb.Get(record.Int(k)); err != nil {
						errs <- fmt.Errorf("worker %d search: %w", w, err)
						return
					}
					lo, hi := record.Int(base), record.Int(base+50)
					sc, err := tb.RangeScan(0, &lo, &hi)
					if err != nil {
						errs <- fmt.Errorf("worker %d scan open: %w", w, err)
						return
					}
					for {
						_, ok, err := sc.Next()
						if err != nil {
							sc.Close()
							errs <- fmt.Errorf("worker %d scan: %w", w, err)
							return
						}
						if !ok {
							break
						}
					}
					sc.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Serial oracle: replay each worker's RNG stream to compute the
	// expected live-key set.
	oracle := map[int64]bool{}
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		base := int64(w * keySpace)
		live := map[int64]bool{}
		for op := 0; op < opsPerWorker; op++ {
			k := base + int64(rng.Intn(keySpace))
			switch {
			case !live[k]:
				live[k] = true
			case rng.Intn(3) == 0:
				delete(live, k)
			default:
			}
			if op%25 == 0 {
				_ = k // reads consume no randomness
			}
		}
		for k := range live {
			oracle[k] = true
		}
	}
	if tb.RowCount() != len(oracle) {
		t.Fatalf("RowCount = %d, oracle %d", tb.RowCount(), len(oracle))
	}
	sc, err := tb.SeqScan()
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, sc)
	if len(rows) != len(oracle) {
		t.Fatalf("scan %d rows, oracle %d", len(rows), len(oracle))
	}
	var got []int64
	for _, r := range rows {
		if !oracle[r[0].I] {
			t.Fatalf("scan emitted key %d the oracle never kept", r[0].I)
		}
		got = append(got, r[0].I)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("concurrent-era merge scan out of key order")
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestTamperAnyShardDetected tampers a page belonging to each shard in
// turn, mid-workload, and requires deferred verification to catch it.
func TestTamperAnyShardDetected(t *testing.T) {
	for target := 0; target < 4; target++ {
		t.Run(fmt.Sprintf("shard=%d", target), func(t *testing.T) {
			s := newStore(t, vmem.Config{})
			tb, err := s.CreateTable(shardedSpec(4))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(1), record.Float(0)})
			}
			sh := tb.shards[target]
			if len(sh.pages) == 0 {
				t.Fatalf("shard %d owns no pages", target)
			}
			// Corrupting the version ledger is invisible to the host's
			// replies but poisons the deferred read-set digest. Slot 0 of
			// the shard's first page holds a ⊥ sentinel, always live.
			if err := s.Memory().TamperVersion(sh.pages[0], 0, 9999); err != nil {
				t.Fatal(err)
			}
			// DML elsewhere proceeds obliviously.
			for i := 200; i < 250; i++ {
				_ = tb.Insert(record.Tuple{record.Int(int64(i)), record.Int(1), record.Float(0)})
			}
			if err := s.Memory().VerifyAll(); !errors.Is(err, vmem.ErrTamperDetected) {
				t.Fatalf("tampered shard %d escaped verification: %v", target, err)
			}
		})
	}
}

// TestShardRoutingStable pins the routing function: a key's shard is a
// pure function of its encoding, so reopening a table with the same shard
// count finds every key where it was left.
func TestShardRoutingStable(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, err := s.CreateTable(shardedSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(1), record.Float(0)})
	}
	for i := 0; i < 64; i++ {
		k, err := record.KeyOf(record.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sh := tb.shardFor(k)
		if _, ok := sh.chains[0].Get(k.Encode()); !ok {
			t.Fatalf("key %d not in its routed shard %d", i, sh.id)
		}
	}
}

// TestSpaciousSetPrunes checks the free-page cache drops pages that can
// no longer satisfy an allocation instead of growing without bound
// (satellite: the spacious map previously only ever gained entries).
func TestSpaciousSetPrunes(t *testing.T) {
	s := newStore(t, vmem.Config{PageSize: 512})
	spec := TableSpec{
		Name: "docs",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "body", Type: record.TypeText},
		),
		PrimaryKey: 0,
	}
	tb, err := s.CreateTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Fill many pages with small rows, delete most rows so nearly every
	// page lands in the spacious set, then insert large rows none of the
	// stale pages can host: the set must shrink, not just accumulate.
	for i := 0; i < 200; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Text("aaaa")})
	}
	for i := 0; i < 200; i++ {
		if i%10 != 0 {
			if err := tb.Delete(record.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := len(tb.shards[0].spacious)
	if before == 0 {
		t.Skip("workload left no spacious pages; placement layout changed")
	}
	big := make([]byte, 0, 400)
	for len(big) < 400 {
		big = append(big, 'z')
	}
	for i := 1000; i < 1040; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Text(string(big))})
	}
	after := len(tb.shards[0].spacious)
	if after >= before+40 {
		t.Fatalf("spacious set grew %d -> %d; stale pages never pruned", before, after)
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
