package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"veridb/internal/enclave"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

func mvccStore(t *testing.T, shards int) (*Store, *Table) {
	t.Helper()
	mem, err := vmem.New(enclave.NewForTest(7), vmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(mem)
	tb, err := s.CreateTable(TableSpec{
		Name: "acct",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "grp", Type: record.TypeInt},
			record.Column{Name: "bal", Type: record.TypeFloat},
		),
		PrimaryKey:   0,
		ChainColumns: []int{1},
		Shards:       shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, tb
}

// iterResult lets a multi-valued scan constructor feed scanRows directly.
type iterResult struct {
	it  Iterator
	err error
}

func ir(it Iterator, err error) iterResult { return iterResult{it, err} }

func scanRows(t *testing.T, r iterResult) []record.Tuple {
	t.Helper()
	if r.err != nil {
		t.Fatal(r.err)
	}
	it := r.it
	defer it.Close()
	var rows []record.Tuple
	for {
		tup, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, tup)
	}
}

func rowsEqual(a, b []record.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			return false
		}
	}
	return true
}

// TestWriterNotBlockedByOpenScan is the mergeIterator latch-lifetime
// regression test: an open, unfinished snapshot scan must not block a
// writer. Before MVCC the merge held every shard's shared latch until the
// scan drained, so the Insert below would deadlock against the paused scan.
func TestWriterNotBlockedByOpenScan(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, tb := mvccStore(t, shards)
			for i := 0; i < 100; i++ {
				if err := tb.InsertAt(record.Tuple{record.Int(int64(i)), record.Int(int64(i % 5)), record.Float(0)}, nil); err != nil {
					t.Fatal(err)
				}
			}
			sc, err := tb.SeqScan()
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			// Pull a few rows and leave the scan open mid-flight.
			for i := 0; i < 3; i++ {
				if _, ok, err := sc.Next(); !ok || err != nil {
					t.Fatalf("scan stalled early: ok=%v err=%v", ok, err)
				}
			}
			done := make(chan error, 1)
			go func() {
				done <- tb.InsertAt(record.Tuple{record.Int(1000), record.Int(0), record.Float(1)}, nil)
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("writer failed: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("writer blocked behind an open unfinished scan")
			}
			// The open scan still completes and sees its snapshot only.
			rest := 3
			for {
				_, ok, err := sc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				rest++
			}
			if rest != 100 {
				t.Fatalf("open scan saw %d rows, want its 100-row snapshot", rest)
			}
		})
	}
}

// TestSnapshotStableUnderWrites pins a snapshot, mutates the table heavily,
// and requires reads at the snapshot to keep returning the pinned state —
// repeatedly and bit-identically — while fresh scans see the new state.
func TestSnapshotStableUnderWrites(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, tb := mvccStore(t, shards)
			for i := 0; i < 50; i++ {
				if err := tb.InsertAt(record.Tuple{record.Int(int64(i)), record.Int(int64(i % 5)), record.Float(float64(i))}, nil); err != nil {
					t.Fatal(err)
				}
			}
			snap := s.OpenSnapshot()
			defer snap.Close()
			want := scanRows(t, ir(tb.SeqScanAt(snap)))
			if len(want) != 50 {
				t.Fatalf("snapshot scan saw %d rows, want 50", len(want))
			}

			// Heavy churn after the pin: updates, deletes, inserts.
			for i := 0; i < 50; i += 2 {
				if err := tb.UpdateAt(record.Int(int64(i)), record.Tuple{record.Int(int64(i)), record.Int(int64((i + 1) % 5)), record.Float(-1)}, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < 50; i += 4 {
				if err := tb.DeleteAt(record.Int(int64(i)), nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 100; i < 130; i++ {
				if err := tb.InsertAt(record.Tuple{record.Int(int64(i)), record.Int(0), record.Float(9)}, nil); err != nil {
					t.Fatal(err)
				}
			}

			for round := 0; round < 3; round++ {
				got := scanRows(t, ir(tb.SeqScanAt(snap)))
				if !rowsEqual(got, want) {
					t.Fatalf("round %d: snapshot scan drifted: %d rows vs %d", round, len(got), len(want))
				}
			}
			// Secondary-chain range scan at the snapshot is pinned too.
			lo, hi := record.Int(0), record.Int(4)
			gotRange := scanRows(t, ir(tb.RangeScanAt(1, &lo, &hi, snap)))
			if len(gotRange) != 50 {
				t.Fatalf("snapshot range scan saw %d rows, want 50", len(gotRange))
			}
			// A fresh scan sees the post-churn state.
			fresh := scanRows(t, ir(tb.SeqScan()))
			if rowsEqual(fresh, want) {
				t.Fatal("fresh scan still returns the old snapshot")
			}
			if len(fresh) != 50-13+30 {
				t.Fatalf("fresh scan saw %d rows, want %d", len(fresh), 50-13+30)
			}
		})
	}
}

// TestGetAtSnapshot exercises the snapshot point read: presence of the
// pinned value after updates, presence after delete, and absence of keys
// born after the pin — each with verified evidence.
func TestGetAtSnapshot(t *testing.T) {
	s, tb := mvccStore(t, 4)
	for i := 0; i < 20; i++ {
		if err := tb.InsertAt(record.Tuple{record.Int(int64(i)), record.Int(0), record.Float(float64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.OpenSnapshot()
	defer snap.Close()

	if err := tb.UpdateAt(record.Int(3), record.Tuple{record.Int(3), record.Int(0), record.Float(-3)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.DeleteAt(record.Int(7), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertAt(record.Tuple{record.Int(50), record.Int(0), record.Float(50)}, nil); err != nil {
		t.Fatal(err)
	}

	tup, ev, err := tb.GetAt(record.Int(3), snap)
	if err != nil || !ev.Found || tup[2].F != 3 {
		t.Fatalf("GetAt(3) = %v ev=%v err=%v, want pinned value 3", tup, ev, err)
	}
	tup, ev, err = tb.GetAt(record.Int(7), snap)
	if err != nil || !ev.Found || tup[2].F != 7 {
		t.Fatalf("GetAt(7) = %v ev=%v err=%v, want pre-delete value", tup, ev, err)
	}
	tup, ev, err = tb.GetAt(record.Int(50), snap)
	if err != nil || ev.Found || tup != nil {
		t.Fatalf("GetAt(50) = %v ev=%v err=%v, want verified absence", tup, ev, err)
	}
	// Latest-state reads see the churn.
	if tup, _, err := tb.Get(record.Int(3)); err != nil || tup[2].F != -3 {
		t.Fatalf("Get(3) = %v err=%v, want updated value", tup, err)
	}
	if _, ev, err := tb.Get(record.Int(7)); err != nil || ev.Found {
		t.Fatalf("Get(7) found=%v err=%v, want absent", ev.Found, err)
	}
}

// TestVersionGCReclaims: the writers reclaim the versions they retire once
// no snapshot can read them. Under a pin the snapshot keeps reading its
// rows; once the pin closes, one round of writes leaves only the last
// write per shard's own versions. Reclamation touches only trusted heap: a
// twin store that held a pin throughout, and so reclaimed nothing, ends
// with the same resident RSWS checksum.
func TestVersionGCReclaims(t *testing.T) {
	s, tb := mvccStore(t, 2)
	twin, twinTb := mvccStore(t, 2)
	held := twin.OpenSnapshot()
	defer held.Close()
	both := func(f func(*Table) error) {
		t.Helper()
		for _, x := range []*Table{tb, twinTb} {
			if err := f(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	updateAll := func(bal float64) {
		t.Helper()
		both(func(x *Table) error {
			for i := 0; i < 30; i++ {
				if err := x.UpdateAt(record.Int(int64(i)), record.Tuple{record.Int(int64(i)), record.Int(0), record.Float(bal)}, nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	both(func(x *Table) error {
		for i := 0; i < 30; i++ {
			if err := x.InsertAt(record.Tuple{record.Int(int64(i)), record.Int(0), record.Float(0)}, nil); err != nil {
				return err
			}
		}
		return nil
	})
	snap := s.OpenSnapshot()
	for round := 1; round <= 4; round++ {
		updateAll(float64(round))
	}
	if retained, _, floor := s.VersionStats(); retained < 4*30 || floor > snap.Seq() {
		t.Fatalf("under a pin: %d versions retained at floor %d, want ≥ %d with the floor at most the pin %d", retained, floor, 4*30, snap.Seq())
	}
	for _, r := range scanRows(t, ir(tb.SeqScanAt(snap))) {
		if r[2].F != 0 {
			t.Fatalf("pinned snapshot read %v, want the pre-update balance 0", r)
		}
	}

	snap.Close()
	updateAll(5)
	// Each update retires one version under each of the two chain keys and
	// installs two begin seqs; only the last update on each shard is above
	// the floor when the round ends.
	if retained, begins, _ := s.VersionStats(); retained > 2*2 || begins > 2*2 {
		t.Fatalf("%d versions and %d begin seqs survive a round of writes with no pin, want ≤ 4 each", retained, begins)
	}
	if got, want := s.Memory().ResidentChecksum(), twin.Memory().ResidentChecksum(); got != want {
		t.Fatalf("reclamation changed the resident checksum: %x, twin that reclaimed nothing %x", got, want)
	}
	if got := scanRows(t, ir(tb.SeqScan())); len(got) != 30 || got[0][2].F != 5 {
		t.Fatalf("scan after reclamation saw %d rows, first %v", len(got), got[0])
	}
}

// TestSnapshotConsistencyUnderConcurrentWriters races writers against
// snapshot scans on a sharded table: every scan must be internally
// consistent (a committed prefix: balance-sum invariant preserved) and
// repeat scans at the same snapshot must be bit-identical.
func TestSnapshotConsistencyUnderConcurrentWriters(t *testing.T) {
	s, tb := mvccStore(t, 4)
	const nRows = 40
	for i := 0; i < nRows; i++ {
		if err := tb.InsertAt(record.Tuple{record.Int(int64(i)), record.Int(int64(i % 3)), record.Float(100)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers move balance between row pairs under one commit each: every
	// committed state sums to 100*nRows.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := rng.Intn(nRows)
				b := (a + 1 + rng.Intn(nRows-1)) % nRows
				amt := float64(rng.Intn(10))
				c := s.BeginCommit()
				_ = tb.UpdateFuncAt(record.Int(int64(a)), func(tup record.Tuple) (record.Tuple, error) {
					tup[2] = record.Float(tup[2].F - amt)
					return tup, nil
				}, c)
				_ = tb.UpdateFuncAt(record.Int(int64(b)), func(tup record.Tuple) (record.Tuple, error) {
					tup[2] = record.Float(tup[2].F + amt)
					return tup, nil
				}, c)
				c.Done()
			}
		}(int64(w + 1))
	}
	for round := 0; round < 20; round++ {
		snap := s.OpenSnapshot()
		first := scanRows(t, ir(tb.SeqScanAt(snap)))
		if len(first) != nRows {
			snap.Close()
			t.Fatalf("round %d: snapshot scan saw %d rows", round, len(first))
		}
		sum := 0.0
		for _, r := range first {
			sum += r[2].F
		}
		if sum != 100*nRows {
			snap.Close()
			t.Fatalf("round %d: snapshot caught a torn commit: sum %v", round, sum)
		}
		second := scanRows(t, ir(tb.SeqScanAt(snap)))
		if !rowsEqual(first, second) {
			snap.Close()
			t.Fatalf("round %d: repeat scan at one snapshot differs", round)
		}
		snap.Close()
	}
	close(stop)
	wg.Wait()
}

// TestCommitClockForgetsStalledBurst holds one commit open while 10 000
// later ones complete, then ends it: the watermark must jump to the last
// issued seq and the clock must keep nothing of the burst. While the first
// commit is open the watermark stays below it and the floor with it.
func TestCommitClockForgetsStalledBurst(t *testing.T) {
	c := &commitClock{}
	first := c.begin()
	for i := 0; i < 10000; i++ {
		seq := c.begin()
		c.end(seq, seq)
	}
	if w := c.watermark(); w != first-1 {
		t.Fatalf("watermark %d past the open commit %d", w, first)
	}
	if f := c.floor(); f != first-1 {
		t.Fatalf("floor %d, want %d", f, first-1)
	}
	c.end(first, first)
	if w := c.watermark(); w != c.next {
		t.Fatalf("watermark %d after the burst drained, want next %d", w, c.next)
	}
	if len(c.window) != 0 {
		t.Fatalf("%d commits still in the window", len(c.window))
	}
}

// TestCommitClockWindowAndPins: the watermark never rests inside a
// commit's [seq, eff) window, and the floor is the oldest pin.
func TestCommitClockWindowAndPins(t *testing.T) {
	c := &commitClock{}
	a, b := c.begin(), c.begin() // 1, 2
	c.end(a, b)                  // a landed at b's timestamp
	if w := c.watermark(); w != 0 {
		t.Fatalf("watermark %d inside a's [1, 2) window", w)
	}
	p0 := c.pin()
	c.end(b, b)
	if w := c.watermark(); w != b {
		t.Fatalf("watermark %d, want %d", w, b)
	}
	p2a, p2b := c.pin(), c.pin()
	if p0 != 0 || p2a != b || p2b != b || c.pinCount() != 3 || len(c.pins) != 2 {
		t.Fatalf("pins %d %d %d, count %d, entries %v", p0, p2a, p2b, c.pinCount(), c.pins)
	}
	if f := c.floor(); f != 0 {
		t.Fatalf("floor %d with a pin at 0", f)
	}
	c.unpin(p0)
	if f := c.floor(); f != b {
		t.Fatalf("floor %d, want the oldest pin %d", f, b)
	}
	c.unpin(p2a)
	c.unpin(p2b)
	if c.pinCount() != 0 || len(c.pins) != 0 {
		t.Fatalf("pins left: %v", c.pins)
	}
	if seq := c.begin(); c.floor() != b {
		t.Fatalf("floor %d moved with commit %d still open", c.floor(), seq)
	}
}

// TestNilCommitWritesAreVersioned: a write with a nil commit commits alone
// (the Engine nil rule), so it captures versions like any other. A
// snapshot pinned before the four writes reads the table as it was, by
// scan and by point read.
func TestNilCommitWritesAreVersioned(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, tb := mvccStore(t, shards)
			for i := int64(1); i <= 3; i++ {
				if err := tb.InsertAt(record.Tuple{record.Int(i), record.Int(i % 2), record.Float(float64(i))}, nil); err != nil {
					t.Fatal(err)
				}
			}
			snap := s.OpenSnapshot()
			defer snap.Close()
			before := scanRows(t, ir(tb.SeqScanAt(snap)))
			gets := func() []string {
				var out []string
				for i := int64(1); i <= 4; i++ {
					tup, ev, err := tb.GetAt(record.Int(i), snap)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, fmt.Sprint(tup, ev.Found))
				}
				return out
			}
			beforeGets := gets()

			if err := tb.InsertAt(record.Tuple{record.Int(4), record.Int(0), record.Float(4)}, nil); err != nil {
				t.Fatal(err)
			}
			if err := tb.UpdateAt(record.Int(2), record.Tuple{record.Int(2), record.Int(0), record.Float(-2)}, nil); err != nil {
				t.Fatal(err)
			}
			err := tb.UpdateFuncAt(record.Int(3), func(row record.Tuple) (record.Tuple, error) {
				row[2] = record.Float(-3)
				return row, nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.DeleteAt(record.Int(1), nil); err != nil {
				t.Fatal(err)
			}

			if got := scanRows(t, ir(tb.SeqScanAt(snap))); !rowsEqual(got, before) {
				t.Fatalf("snapshot scan after nil-commit writes = %v, want %v", got, before)
			}
			if got := gets(); fmt.Sprint(got) != fmt.Sprint(beforeGets) {
				t.Fatalf("snapshot point reads after nil-commit writes = %v, want %v", got, beforeGets)
			}
			want := "[[2 0 -2] [3 1 -3] [4 0 4]]"
			if got := scanRows(t, ir(tb.SeqScanAt(nil))); fmt.Sprint(got) != want {
				t.Fatalf("latest scan = %v, want %s", got, want)
			}
			if err := s.Memory().VerifyAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUpdateOntoExistingKeyKeepsRow: an update that moves a row onto a
// primary key another row holds fails with ErrDuplicateKey and changes
// nothing — both rows and every chain, at the latest state and at a
// snapshot pinned before it. A move onto a free key then succeeds, and the
// snapshot still reads the row under its old key.
func TestUpdateOntoExistingKeyKeepsRow(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, tb := mvccStore(t, shards)
			for i := int64(1); i <= 3; i++ {
				if err := tb.InsertAt(record.Tuple{record.Int(i), record.Int(i % 2), record.Float(float64(10 * i))}, nil); err != nil {
					t.Fatal(err)
				}
			}
			snap := s.OpenSnapshot()
			defer snap.Close()
			// Every chain: the primary one by a whole scan and by point reads,
			// the secondary one (grp) by a range scan over all of it.
			state := func(at *Snapshot) string {
				var gets []string
				for i := int64(1); i <= 5; i++ {
					tup, ev, err := tb.GetAt(record.Int(i), at)
					if err != nil {
						t.Fatal(err)
					}
					gets = append(gets, fmt.Sprint(tup, ev.Found))
				}
				return fmt.Sprint(scanRows(t, ir(tb.SeqScanAt(at))), scanRows(t, ir(tb.RangeScanAt(1, nil, nil, at))), gets)
			}
			want := state(nil)

			err := tb.UpdateAt(record.Int(1), record.Tuple{record.Int(2), record.Int(0), record.Float(99)}, nil)
			if !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("update onto an existing key: %v, want ErrDuplicateKey", err)
			}
			if got := state(nil); got != want {
				t.Fatalf("latest state after the failed update:\n%s\nwant\n%s", got, want)
			}
			if got := state(snap); got != want {
				t.Fatalf("snapshot state after the failed update:\n%s\nwant\n%s", got, want)
			}

			if err := tb.UpdateAt(record.Int(1), record.Tuple{record.Int(5), record.Int(0), record.Float(50)}, nil); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(scanRows(t, ir(tb.SeqScanAt(nil)))); got != "[[2 0 20] [3 1 30] [5 0 50]]" {
				t.Fatalf("latest rows after moving 1 to 5: %s", got)
			}
			if got := state(snap); got != want {
				t.Fatalf("snapshot state after moving 1 to 5:\n%s\nwant\n%s", got, want)
			}
			if err := s.Memory().VerifyAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
