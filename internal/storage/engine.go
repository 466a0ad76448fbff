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
// instead of the concrete *Table. It carries exactly the paper's verified
// access methods — point lookup with evidence (§5.2 index search), DML
// (§4.2 Insert/Delete/Update), and verified range/sequential scans — plus
// the schema metadata planning needs. Every future backend (disk pages,
// remote shards) plugs in here; the in-memory sharded table is the first
// implementation.
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
	// presence/absence evidence (Definition 4.2).
	Get(pk record.Value) (record.Tuple, Evidence, error)

	// DML, each maintaining every ⟨key, nKey⟩ chain (§4.2).
	Insert(tup record.Tuple) error
	Delete(pk record.Value) error
	Update(pk record.Value, newTup record.Tuple) error
	// UpdateFunc is the read-modify-write primitive: mutate runs on a copy
	// of the row under the owning shard's write latch. Chain-key columns
	// must not change; use Update for key-changing writes.
	UpdateFunc(pk record.Value, mutate func(record.Tuple) (record.Tuple, error)) error

	// Verified scans (§5.2 Example 5.1 conditions). RangeScan covers column
	// values in [lo, hi] on the chain serving col (nil bounds are open);
	// SeqScan walks the whole primary chain. On a sharded table both stitch
	// the per-shard sub-chains in key order.
	RangeScan(col int, lo, hi *record.Value) (Iterator, error)
	SeqScan() (Iterator, error)

	// MVCC variants. The At-reads resolve every chain step against a pinned
	// Snapshot (the committed state at its seq), letting scans run without
	// holding shard latches; the At-writes stamp their versions with an
	// explicit Commit so a multi-row statement becomes visible atomically.
	GetAt(pk record.Value, snap *Snapshot) (record.Tuple, Evidence, error)
	RangeScanAt(col int, lo, hi *record.Value, snap *Snapshot) (Iterator, error)
	SeqScanAt(snap *Snapshot) (Iterator, error)
	InsertAt(tup record.Tuple, c *Commit) error
	DeleteAt(pk record.Value, c *Commit) error
	UpdateAt(pk record.Value, newTup record.Tuple, c *Commit) error
	UpdateFuncAt(pk record.Value, mutate func(record.Tuple) (record.Tuple, error), c *Commit) error
}

// Catalog is the table-registry half of the seam: Register creates a table
// (the §4.2 Register step — its chain sentinels join the verified set) and
// hands back its Engine. The executor's spill operator and the SQL layer
// create and drop tables only through this interface.
type Catalog interface {
	Register(spec TableSpec) (Engine, error)
	Table(name string) (Engine, error)
	DropTable(name string) error
	TableNames() []string
}

// Interface conformance pins.
var (
	_ Engine   = (*Table)(nil)
	_ Catalog  = (*Store)(nil)
	_ Iterator = (*Scanner)(nil)
	_ Iterator = (*mergeIterator)(nil)
	_ Iterator = (*parallelMergeIterator)(nil)
)
