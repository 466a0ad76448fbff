package storage

import (
	"testing"

	"veridb/internal/record"
	"veridb/internal/vmem"
)

// The allocation gate on the verified write. A write keeps what snapshot
// readers and the indexes need of it — each retired pre-image (a decoded
// record: the Record, its links, one buffer of key bytes and the data
// tuple, 4 allocations), the version list it opens under each of that
// record's chain keys, the history index's copy of each such key, the key
// strings the version maps and the reclaim queue hold, and the untrusted
// index's copy of each new key — and allocates little else: the commit a
// nil-commit write begins for itself, the encoded primary key, and the
// composite key of a secondary chain. Everything the write only passes
// through (the version transaction, index probes, fetched and encoded
// images, compaction) reuses shard or pool scratch. Before it did, the
// same three calls allocated 93, 54 and 101 times, and UpdateFuncAt 17
// before its unchanged-key check stopped building keys.
const (
	// insertMaxAllocs: the predecessor's pre-image (4), retired once but
	// fetched and decoded twice, since it precedes the new row on both
	// chains (4 more, discarded); 2 version lists and 2 history-key
	// copies; 4 key strings (the predecessor's two keys, the new row's
	// two); 2 chain-index key copies; the commit, the primary key, the
	// secondary chain's composite key (2) and the caller's tuple.
	insertMaxAllocs = 23
	// updateMaxAllocs: the row's pre-image (4); the one copy of its data
	// handed to mutate; 2 version lists, 2 history-key copies and 2 key
	// strings; the commit and the primary key. The check that mutate kept
	// every chain key compares through the shard's key scratch.
	updateMaxAllocs = 13
	// deleteMaxAllocs: the row's and its predecessor's pre-images (8),
	// the predecessor decoded a second time for its other chain (4,
	// discarded); 4 version lists, 4 history-key copies and 4 key strings
	// (two chain keys each); the commit and the primary key.
	deleteMaxAllocs = 26

	// With VerifyMetadata every protected write first copies the page's
	// header and line pointers in one allocation: three for an insert (the
	// new record and its predecessor's relink on each chain), one for an
	// update, three for a delete.
	insertMetaMaxAllocs = insertMaxAllocs + 3
	updateMetaMaxAllocs = updateMaxAllocs + 1
	deleteMetaMaxAllocs = deleteMaxAllocs + 3
)

// TestWriteAllocs gates InsertAt, UpdateFuncAt and DeleteAt of one row on
// a warm one-shard table with two chains (itemsSpec) and no snapshot
// pinned, each write under a commit of its own, in the default
// configuration and with VerifyMetadata, whose every protected write also
// copies the page's metadata cells once. Allocation counts are the same on
// any host, unlike timings, so this runs with the ordinary tests.
func TestWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the pooled hasher and compaction buffer on purpose under the race detector")
	}
	for _, c := range []struct {
		name                string
		cfg                 vmem.Config
		insert, update, del float64
	}{
		{"RSWS", vmem.Config{}, insertMaxAllocs, updateMaxAllocs, deleteMaxAllocs},
		{"VerifyMetadata", vmem.Config{VerifyMetadata: true}, insertMetaMaxAllocs, updateMetaMaxAllocs, deleteMetaMaxAllocs},
	} {
		t.Run(c.name, func(t *testing.T) {
			testWriteAllocs(t, c.cfg, c.insert, c.update, c.del)
		})
	}
}

func testWriteAllocs(t *testing.T, cfg vmem.Config, insertMax, updateMax, deleteMax float64) {
	tb, err := newStore(t, cfg).CreateTable(itemsSpec())
	if err != nil {
		t.Fatal(err)
	}
	const warm = 2000
	for i := int64(1); i <= warm; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(2 * i), record.Int(i % 97), record.Float(float64(i))})
	}
	const runs = 200 // AllocsPerRun calls the function once more to warm up
	var err2 error
	next := int64(0)
	// Odd keys between the warm rows: each insert relinks a predecessor on
	// both chains, and each delete unlinks one.
	insert := testing.AllocsPerRun(runs, func() {
		next++
		if err := tb.InsertAt(record.Tuple{record.Int(2*next + 1), record.Int(next % 97), record.Float(1)}, nil); err != nil {
			err2 = err
		}
	})
	inserted := next
	next = 0
	update := testing.AllocsPerRun(runs, func() {
		next++
		err := tb.UpdateFuncAt(record.Int(2*next+1), func(tup record.Tuple) (record.Tuple, error) {
			tup[2] = record.Float(tup[2].F + 1)
			return tup, nil
		}, nil)
		if err != nil {
			err2 = err
		}
	})
	next = 0
	del := testing.AllocsPerRun(runs, func() {
		next++
		if err := tb.DeleteAt(record.Int(2*next+1), nil); err != nil {
			err2 = err
		}
	})
	if err2 != nil {
		t.Fatal(err2)
	}
	if next != inserted || tb.RowCount() != warm {
		t.Fatalf("deleted %d of %d inserted rows; %d rows left, want %d", next, inserted, tb.RowCount(), warm)
	}
	for _, g := range []struct {
		name   string
		allocs float64
		bound  float64
	}{
		{"InsertAt", insert, insertMax},
		{"UpdateFuncAt", update, updateMax},
		{"DeleteAt", del, deleteMax},
	} {
		t.Logf("%s: %.1f allocs", g.name, g.allocs)
		if g.allocs > g.bound {
			t.Errorf("%s: %.1f allocs per write, want at most %.0f", g.name, g.allocs, g.bound)
		}
	}
	if err := tb.mem.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
