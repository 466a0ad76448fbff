package storage

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"veridb/internal/index"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

// Completeness under tamper at every link of a range scan. For each record
// the scan of [linkLo, linkHi] visits — every in-range row and, per shard,
// the entry record below the range — one thing is corrupted, separately:
// its nKey (forwards, backwards), the untrusted index entry that locates it
// (redirected within the shard, redirected across shards, removed), a byte
// of its data. The scan must then fail with ErrVerifyFailed, or the next
// VerifyAll must raise the alarm; an answer with neither is the one outcome
// that may not happen, whether it is short, altered or — a backward nKey
// followed round in a circle — endless.

const (
	linkRows = 24 // keys 10, 20, ... 240
	linkLo   = 65
	linkHi   = 175
	// linkDeadline bounds one scan: a walk that circles without emitting
	// rows would otherwise hang the test instead of failing it.
	linkDeadline = 20 * time.Second
)

func linkKey(i int) int64 { return int64(10 * (i + 1)) }

func linkTable(t *testing.T, shards int) *Table {
	t.Helper()
	tb, err := newStore(t, vmem.Config{Partitions: 4}).CreateTable(shardedSpec(shards))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < linkRows; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(linkKey(i)), record.Int(int64(i % 5)), record.Float(float64(i))})
	}
	return tb
}

// linkScan range-scans [linkLo, linkHi] batch-wise and returns the rows'
// ids and prices. A scan that answers more rows than the table holds is cut
// off, and one that does not come back within linkDeadline is abandoned.
func linkScan(t *testing.T, tb *Table, capacity int) ([]float64, error) {
	t.Helper()
	type answer struct {
		rows []float64
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		lo, hi := record.Int(linkLo), record.Int(linkHi)
		it, err := tb.RangeScan(0, &lo, &hi)
		if err != nil {
			done <- answer{err: err}
			return
		}
		defer it.Close()
		batch := NewRowBatch(capacity)
		var rows []float64
		for {
			n, err := it.NextBatch(batch)
			if err != nil || n == 0 {
				done <- answer{rows, err}
				return
			}
			for i := 0; i < n; i++ {
				rows = append(rows, float64(batch.Row(i)[0].I), batch.Row(i)[2].F)
			}
			if len(rows) > 4*linkRows {
				done <- answer{rows, errors.New("scan answers more rows than the table holds")}
				return
			}
		}
	}()
	select {
	case a := <-done:
		return a.rows, a.err
	case <-time.After(linkDeadline):
		t.Fatalf("scan still running after %v: the chain walk does not terminate", linkDeadline)
		return nil, nil
	}
}

// linkVisited lists the keys whose records the scan reads: the in-range
// ones and each shard's greatest key below the range.
func linkVisited(tb *Table) []int64 {
	below := map[*shard]int64{}
	var keys []int64
	for i := 0; i < linkRows; i++ {
		k := linkKey(i)
		switch sh := tb.shardFor(record.MustKeyOf(record.Int(k))); {
		case k >= linkLo && k <= linkHi:
			keys = append(keys, k)
		case k < linkLo && k > below[sh]:
			below[sh] = k
		}
	}
	for _, k := range below {
		keys = append(keys, k)
	}
	return keys
}

func linkLoc(tb *Table, k int64) (*shard, []byte, index.Loc, bool) {
	pk := record.MustKeyOf(record.Int(k))
	sh := tb.shardFor(pk)
	loc, ok := sh.chains[0].Get(pk.Encode())
	return sh, pk.Encode(), loc, ok
}

// rawRecord reads a record's bytes without a protected access.
func rawRecord(t *testing.T, tb *Table, loc index.Loc) []byte {
	t.Helper()
	var raw []byte
	err := tb.mem.Slots(loc.Page, func(slot int, rec []byte) bool {
		if slot == loc.Slot {
			raw = rec
		}
		return raw == nil
	})
	if err != nil || raw == nil {
		t.Fatalf("no record at %v: %v", loc, err)
	}
	return raw
}

// rewriteNKey adds delta (mod 256) to the last byte of the primary-chain
// nKey of the record keyed k, behind the protected interface's back.
func rewriteNKey(t *testing.T, tb *Table, k int64, delta byte) bool {
	t.Helper()
	_, _, loc, _ := linkLoc(tb, k)
	rec, err := record.Decode(rawRecord(t, tb, loc))
	if err != nil {
		t.Fatal(err)
	}
	nk := &rec.Links[0].NKey
	if nk.Kind != record.KindNormal {
		return false // ⊤ has no bytes to rewrite in place
	}
	nk.B[len(nk.B)-1] += delta
	if err := tb.mem.TamperRecord(loc.Page, loc.Slot, record.Encode(rec)); err != nil {
		t.Fatal(err)
	}
	return true
}

// redirect points k's index entry at the record of the nearest other key
// that lives in the same shard as k, or in another one.
func redirect(tb *Table, k int64, sameShard bool) bool {
	sh, enc, _, _ := linkLoc(tb, k)
	for d := int64(10); d < 10*linkRows; d += 10 {
		for _, other := range []int64{k + d, k - d} {
			if osh, _, loc, ok := linkLoc(tb, other); ok && (osh == sh) == sameShard {
				sh.chains[0].Set(enc, loc)
				return true
			}
		}
	}
	return false // a one-shard table has no other shard
}

// linkTampers are the corruptions, each applied to the record keyed k. One
// returning false does not apply to that record.
var linkTampers = map[string]func(t *testing.T, tb *Table, k int64) bool{
	// The key after the real successor: one row skipped.
	"nkey-forward": func(t *testing.T, tb *Table, k int64) bool { return rewriteNKey(t, tb, k, 10) },
	// The record's own predecessor: a walk that trusted it would circle
	// k-10 → k → k-10 …, answering the same rows for ever.
	"nkey-backward": func(t *testing.T, tb *Table, k int64) bool { return rewriteNKey(t, tb, k, 256-20) },
	// The record itself: the shortest circle.
	"nkey-self":             func(t *testing.T, tb *Table, k int64) bool { return rewriteNKey(t, tb, k, 256-10) },
	"index-redirect-shard":  func(t *testing.T, tb *Table, k int64) bool { return redirect(tb, k, true) },
	"index-redirect-across": func(t *testing.T, tb *Table, k int64) bool { return redirect(tb, k, false) },
	"index-delete": func(t *testing.T, tb *Table, k int64) bool {
		sh, enc, _, _ := linkLoc(tb, k)
		return sh.chains[0].Delete(enc)
	},
	"data-byte": func(t *testing.T, tb *Table, k int64) bool {
		_, _, loc, _ := linkLoc(tb, k)
		raw := rawRecord(t, tb, loc)
		raw[len(raw)-1] ^= 0x40 // inside the last column's float
		if err := tb.mem.TamperRecord(loc.Page, loc.Slot, raw); err != nil {
			t.Fatal(err)
		}
		return true
	},
}

func TestTamperAtEveryLinkIsDetected(t *testing.T) {
	for _, shards := range []int{1, 4} {
		clean := linkTable(t, shards)
		want, err := linkScan(t, clean, 256)
		if err != nil || len(want) != 2*11 {
			t.Fatalf("untampered scan on %d shards: %v, %v", shards, want, err)
		}
		keys := linkVisited(clean)
		for _, capacity := range []int{1, 256} {
			for name, tamper := range linkTampers {
				applied := 0
				for _, k := range keys {
					tb := linkTable(t, shards)
					if !tamper(t, tb, k) {
						continue
					}
					applied++
					got, scanErr := linkScan(t, tb, capacity)
					alarm := tb.mem.VerifyAll()
					if scanErr != nil && !errors.Is(scanErr, ErrVerifyFailed) {
						t.Errorf("shards=%d cap=%d %s@%d: scan failed with %v, want ErrVerifyFailed", shards, capacity, name, k, scanErr)
					}
					if scanErr == nil && alarm == nil {
						verdict := "the right rows, but the tamper went unseen"
						if !reflect.DeepEqual(got, want) {
							verdict = fmt.Sprintf("a wrong answer %v (untampered: %v)", got, want)
						}
						t.Errorf("shards=%d cap=%d %s@%d: undetected: %s", shards, capacity, name, k, verdict)
					}
				}
				if applied == 0 && (shards > 1 || name != "index-redirect-across") {
					t.Errorf("shards=%d %s applied to no visited record", shards, name)
				}
			}
		}
	}
}

// TestPointLookupRejectsDescendingLink: the ascending-chain rule sits in the
// check scans and point lookups share, at the latest version and at a
// snapshot.
func TestPointLookupRejectsDescendingLink(t *testing.T) {
	tb := linkTable(t, 1)
	snap := tb.store.OpenSnapshot()
	defer snap.Close()
	if !rewriteNKey(t, tb, 100, 256-20) {
		t.Fatal("tamper did not apply")
	}
	if _, _, err := tb.Get(record.Int(100)); !errors.Is(err, ErrVerifyFailed) {
		t.Errorf("Get of a record whose nKey is below its key: %v, want ErrVerifyFailed", err)
	}
	if _, _, err := tb.GetAt(record.Int(100), snap); !errors.Is(err, ErrVerifyFailed) {
		t.Errorf("GetAt of a record whose nKey is below its key: %v, want ErrVerifyFailed", err)
	}
}

// TestNoFalseAlarmUnderConcurrentWriter is the other half: with nothing
// tampered, a writer inserting, updating and deleting inside the scanned
// range never makes a scan fail or VerifyAll alarm, and every scan returns
// the rows the writer leaves alone.
func TestNoFalseAlarmUnderConcurrentWriter(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, capacity := range []int{1, 256} {
			t.Run(fmt.Sprintf("shards=%d/cap=%d", shards, capacity), func(t *testing.T) {
				tb := linkTable(t, shards)
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						k := int64(60 + 10*(i%12) + 3 + (i/12)%5) // k, k-1, k-2: never a multiple of ten
						var err error
						switch i % 3 {
						case 0:
							err = tb.InsertAt(record.Tuple{record.Int(k), record.Int(1), record.Float(0)}, nil)
						case 1:
							err = tb.UpdateAt(record.Int(k-1), record.Tuple{record.Int(k - 1), record.Int(2), record.Float(1)}, nil)
						default:
							err = tb.DeleteAt(record.Int(k-2), nil)
						}
						if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrDuplicateKey) {
							t.Errorf("writer: %v", err)
							return
						}
					}
				}()
				for round := 0; round < 30; round++ {
					rows, err := linkScan(t, tb, capacity)
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					stable := 0
					for i := 0; i < len(rows); i += 2 {
						if int64(rows[i])%10 == 0 {
							stable++
						}
					}
					if stable != 11 {
						t.Fatalf("round %d: scan saw %d of the 11 rows the writer never touches: %v", round, stable, rows)
					}
				}
				close(stop)
				wg.Wait()
				if err := tb.mem.VerifyAll(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
