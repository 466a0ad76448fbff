package storage

import (
	"veridb/internal/record"
)

// Iterator is a verified scan in progress. Next returns the next in-range
// tuple; ok is false when the scan is complete or failed, in which case Err
// reports the verification error, if any. NextBatch fills a reusable,
// capacity-bounded batch of decoded rows per call — the batch-native entry
// point the vectorized executor consumes; every row still passes the same
// per-row chain verification as Next, and on a sharded table the k-way
// merge's stitch checks run row-by-row inside the fill, so a batch is only
// handed upward once every row in it is verified. NextBatch returning
// (0, nil) means the scan is exhausted. Close is idempotent; no shard latch
// is held between calls, so it only ends the scan (and releases the
// snapshot an implicit scan owns); exhausting the scan closes it
// implicitly. Visited counts chain records read (including sentinels and
// boundary records) — the verification-overhead metric of §6.
type Iterator interface {
	Next() (record.Tuple, bool, error)
	NextBatch(dst *RowBatch) (int, error)
	Close()
	Err() error
	Visited() int
}

// Engine is the storage seam the upper layers (core, plan, engine) consume
// instead of the concrete *Table, its one implementation. It carries
// exactly the paper's verified access methods, one method per operation —
// point lookup with evidence (§5.2 index search), DML (§4.2
// Insert/Delete/Update), and verified range and sequential scans — plus
// the schema metadata planning needs.
//
// The nil rules, stated once for every method:
//   - A write with a nil *Commit commits alone, under a commit of its own.
//     Writes sharing a non-nil commit become visible to snapshot readers
//     atomically when it is done.
//   - A read with a nil *Snapshot reads the latest state: a point read sees
//     the live version under the owning shard's latch, and a scan reads at
//     a snapshot it pins itself and releases at Close. A non-nil snapshot
//     stays the caller's, and one can serve many reads.
type Engine interface {
	// Schema metadata.
	Name() string
	Schema() *record.Schema
	PrimaryKeyColumn() int
	ChainColumns() []int
	ChainFor(col int) int
	RowCount() int
	ShardCount() int

	// Verified point access: the result carries single-record ⟨key, nKey⟩
	// presence/absence evidence (Definition 4.2). Get is GetAt(pk, nil).
	GetAt(pk record.Value, snap *Snapshot) (record.Tuple, Evidence, error)
	Get(pk record.Value) (record.Tuple, Evidence, error)

	// Verified scans (§5.2 Example 5.1 conditions). RangeScanAt covers
	// column values in [lo, hi] on the chain serving col (nil bounds are
	// open); SeqScanAt walks the whole primary chain. On a sharded table
	// both stitch the per-shard sub-chains in key order. RangeScan is
	// RangeScanAt(col, lo, hi, nil).
	RangeScanAt(col int, lo, hi *record.Value, snap *Snapshot) (Iterator, error)
	RangeScan(col int, lo, hi *record.Value) (Iterator, error)
	SeqScanAt(snap *Snapshot) (Iterator, error)

	// DML, each maintaining every ⟨key, nKey⟩ chain (§4.2). UpdateFuncAt is
	// the read-modify-write primitive: mutate runs on a copy of the row
	// under the owning shard's write latch. Chain-key columns must not
	// change; use UpdateAt for key-changing writes.
	InsertAt(tup record.Tuple, c *Commit) error
	DeleteAt(pk record.Value, c *Commit) error
	UpdateAt(pk record.Value, newTup record.Tuple, c *Commit) error
	UpdateFuncAt(pk record.Value, mutate func(record.Tuple) (record.Tuple, error), c *Commit) error
}

// Interface conformance pins.
var (
	_ Engine   = (*Table)(nil)
	_ Iterator = (*Scanner)(nil)
	_ Iterator = (*mergeIterator)(nil)
)
