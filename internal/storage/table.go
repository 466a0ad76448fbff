package storage

import (
	"fmt"

	"veridb/internal/index"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

// Table is one relational table in the verifiable storage: a router over N
// hash shards. Every row is stored as a record carrying one ⟨key, nKey⟩
// link per chain column inside the shard its primary key hashes to; each
// shard additionally has one ⊥-anchored sentinel record per chain so that
// absence below the shard's minimum and in an empty shard is provable
// (Definition 4.2, Fig. 6).
//
// Point operations touch exactly one shard (routing is a deterministic
// in-enclave function of the primary key, so a key can live nowhere else
// and the owning shard's ⟨key, nKey⟩ interval is a complete absence
// proof). Scans open one verified scanner per shard and stitch the
// sub-chains in key order; see merge.go.
//
// With a single shard the layout, page-allocation order and verification
// traffic are bit-for-bit identical to the pre-sharding code (pinned by
// TestShardsOneGoldenChecksum).
type Table struct {
	store  *Store
	mem    *vmem.Memory
	name   string
	schema *record.Schema

	// chainCols[0] is the primary-key column; the rest are secondary chain
	// columns in ascending column order.
	chainCols []int

	shards []*shard

	// ephemeral tables (spool spill targets) skip MVCC entirely: no commit
	// clock traffic, no version capture, scans at the latest version.
	ephemeral bool
	// born is the commit seq the table was created at; snapshots pinned
	// below it must not scan the table (their catalog predates it).
	born uint64
}

func newTable(s *Store, name string, schema *record.Schema, chainCols []int, nShards int, ephemeral bool) (*Table, error) {
	if nShards < 1 {
		nShards = 1
	}
	t := &Table{
		store:     s,
		mem:       s.mem,
		name:      name,
		schema:    schema,
		chainCols: chainCols,
		shards:    make([]*shard, nShards),
		ephemeral: ephemeral,
	}
	for i := range t.shards {
		affinity := -1
		if nShards > 1 {
			// Map shard i onto RSWS partition i mod P so the shard latch and
			// the partition lock see the same traffic (§4.3). Single-shard
			// tables keep the plain allocation order, bit-for-bit.
			affinity = i % s.mem.Partitions()
		}
		sh, err := newShard(t, i, affinity)
		if err != nil {
			return nil, err
		}
		t.shards[i] = sh
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *record.Schema { return t.schema }

// PrimaryKeyColumn returns the primary-key column index.
func (t *Table) PrimaryKeyColumn() int { return t.chainCols[0] }

// ChainColumns returns the chain columns (primary first).
func (t *Table) ChainColumns() []int {
	return append([]int(nil), t.chainCols...)
}

// ChainFor returns the chain index serving column col, or -1.
func (t *Table) ChainFor(col int) int {
	for i, c := range t.chainCols {
		if c == col {
			return i
		}
	}
	return -1
}

// ShardCount returns the number of hash shards.
func (t *Table) ShardCount() int { return len(t.shards) }

// RowCount returns the number of data rows (sentinels excluded).
func (t *Table) RowCount() int {
	n := 0
	for _, sh := range t.shards {
		sh.mu.RLock()
		n += sh.rows
		sh.mu.RUnlock()
	}
	return n
}

// shardFor routes an encoded primary key to its owning shard. Routing is a
// pure function of the key, evaluated inside the enclave: the untrusted
// host cannot steer a key to a shard whose chain would not prove its
// absence.
func (t *Table) shardFor(pk record.Key) *shard {
	if len(t.shards) == 1 {
		return t.shards[0]
	}
	return t.shards[index.ShardOf(pk.Encode(), len(t.shards))]
}

// chainKey derives the chain-i key for a tuple: the plain primary key for
// chain 0, a (value, pk) composite for secondary chains. ok is false when
// the tuple does not participate (NULL in a secondary chain column).
func (t *Table) chainKey(i int, tup record.Tuple, pk record.Key) (record.Key, bool, error) {
	v := tup[t.chainCols[i]]
	if i == 0 {
		return pk, true, nil
	}
	if v.IsNull() {
		return record.Key{}, false, nil
	}
	k, err := record.CompositeKey(v, pk)
	if err != nil {
		return record.Key{}, false, err
	}
	return k, true, nil
}

// autoCommit runs a single-statement mutation under its own commit
// timestamp: snapshot readers see it atomically once it completes.
// Ephemeral tables skip the clock entirely (nil commit, no version
// capture).
func (t *Table) autoCommit(f func(c *Commit) error) error {
	if t.ephemeral {
		return f(nil)
	}
	c := t.store.BeginCommit()
	defer c.Done()
	return f(c)
}

// Insert adds a tuple to the shard its primary key routes to, maintaining
// every chain (§4.2 Insert). The write commits under its own timestamp.
func (t *Table) Insert(tup record.Tuple) error {
	return t.autoCommit(func(c *Commit) error { return t.InsertAt(tup, c) })
}

// InsertAt is Insert stamped with an explicit commit: all writes sharing
// the commit become visible to snapshot readers atomically at c.Done.
func (t *Table) InsertAt(tup record.Tuple, c *Commit) error {
	if err := t.schema.Validate(tup); err != nil {
		return err
	}
	tup = t.schema.Coerce(tup)
	pk, err := record.KeyOf(tup[t.chainCols[0]])
	if err != nil {
		return fmt.Errorf("storage: table %q: %w", t.name, err)
	}
	return t.shardFor(pk).insert(tup, pk, c)
}

// Delete removes the row with the given primary-key value (§4.2 Delete:
// unlink from every chain, then drop the record; space reclamation is
// deferred to the verification scan).
func (t *Table) Delete(pkVal record.Value) error {
	return t.autoCommit(func(c *Commit) error { return t.DeleteAt(pkVal, c) })
}

// DeleteAt is Delete stamped with an explicit commit.
func (t *Table) DeleteAt(pkVal record.Value, c *Commit) error {
	pk, err := record.KeyOf(pkVal)
	if err != nil {
		return err
	}
	return t.shardFor(pk).delete(pk, c)
}

// UpdateFunc atomically reads the row with the given primary key, applies
// mutate to a copy, and writes the result back, all under the owning
// shard's write latch — the read-modify-write primitive transactional
// workloads need (lost updates are otherwise possible between Get and
// Update). Chain-key columns must not change; use Update for key-changing
// writes.
func (t *Table) UpdateFunc(pkVal record.Value, mutate func(record.Tuple) (record.Tuple, error)) error {
	return t.autoCommit(func(c *Commit) error { return t.UpdateFuncAt(pkVal, mutate, c) })
}

// UpdateFuncAt is UpdateFunc stamped with an explicit commit.
func (t *Table) UpdateFuncAt(pkVal record.Value, mutate func(record.Tuple) (record.Tuple, error), c *Commit) error {
	pk, err := record.KeyOf(pkVal)
	if err != nil {
		return err
	}
	return t.shardFor(pk).updateFunc(pkVal, pk, mutate, c)
}

// Update replaces the row with the given primary key by newTup. When no
// chain key changes, the data field is rewritten in place (§4.2 Update:
// "there is no need to update the key chain"); otherwise the row is
// deleted and re-inserted — which re-routes it when the primary key now
// hashes to a different shard.
func (t *Table) Update(pkVal record.Value, newTup record.Tuple) error {
	return t.autoCommit(func(c *Commit) error { return t.UpdateAt(pkVal, newTup, c) })
}

// UpdateAt is Update stamped with an explicit commit.
func (t *Table) UpdateAt(pkVal record.Value, newTup record.Tuple, c *Commit) error {
	if err := t.schema.Validate(newTup); err != nil {
		return err
	}
	newTup = t.schema.Coerce(newTup)
	pk, err := record.KeyOf(pkVal)
	if err != nil {
		return err
	}
	reinsert, err := t.shardFor(pk).update(pkVal, pk, newTup, c)
	if err != nil {
		return err
	}
	if !reinsert {
		return nil
	}
	// Same commit: the delete and the re-insert are one version
	// transition, invisible as separate steps to any snapshot.
	if err := t.InsertAt(newTup, c); err != nil {
		return fmt.Errorf("storage: update of %v lost its row on re-insert: %w", pkVal, err)
	}
	return nil
}

// Get is the verified index search of §5.2: SELECT * WHERE pk = v. The
// probe routes to the single shard that could hold the key; the untrusted
// index supplies a candidate location and the record fetched from
// write-read consistent memory must satisfy key == v (present) or
// key < v < nKey (absent), otherwise ErrVerifyFailed is returned.
func (t *Table) Get(v record.Value) (record.Tuple, Evidence, error) {
	pk, err := record.KeyOf(v)
	if err != nil {
		return nil, Evidence{}, err
	}
	return t.shardFor(pk).searchChain(0, pk)
}

// snapCheck validates that snap may read this table at all.
func (t *Table) snapCheck(snap *Snapshot) error {
	if t.ephemeral {
		return fmt.Errorf("storage: ephemeral table %q cannot be read at a snapshot", t.name)
	}
	if snap.Seq() < t.born {
		return fmt.Errorf("storage: table %q was created at seq %d, after snapshot %d", t.name, t.born, snap.Seq())
	}
	return nil
}

// GetAt is Get evaluated against a pinned snapshot: the ⟨key, nKey⟩
// evidence record is the one visible at the snapshot seq, so presence and
// absence are proved for the committed state the snapshot pinned.
func (t *Table) GetAt(v record.Value, snap *Snapshot) (record.Tuple, Evidence, error) {
	if err := t.snapCheck(snap); err != nil {
		return nil, Evidence{}, err
	}
	pk, err := record.KeyOf(v)
	if err != nil {
		return nil, Evidence{}, err
	}
	return t.shardFor(pk).searchChainAt(0, pk, snap.Seq())
}

// NewScan opens a verified scan of the given chain over bounds. For
// chain 0 the bounds are primary keys; for secondary chains callers pass
// composite bounds (record.CompositeLow/High). On a sharded table the scan
// stitches every shard's sub-chain in key order.
//
// On a versioned table the scan runs against an implicit snapshot pinned
// at the current commit watermark and owned by the iterator (released at
// Close). An ephemeral table is scanned at its latest version.
func (t *Table) NewScan(chain int, bounds ScanBounds) (Iterator, error) {
	if t.ephemeral {
		return t.scanAt(chain, bounds, 0)
	}
	return t.withSnapshot(func(snap *Snapshot) (Iterator, error) { return t.NewScanAt(chain, bounds, snap) })
}

// withSnapshot opens a scan against a fresh snapshot the returned iterator
// owns.
func (t *Table) withSnapshot(open func(*Snapshot) (Iterator, error)) (Iterator, error) {
	snap := t.store.OpenSnapshot()
	it, err := open(snap)
	if err != nil {
		snap.Close()
		return it, err
	}
	return &snapClosingIter{Iterator: it, snap: snap}, nil
}

// NewScanAt opens a verified scan of the given chain as of snap. The
// caller keeps ownership of snap (one snapshot can serve many scans).
func (t *Table) NewScanAt(chain int, bounds ScanBounds, snap *Snapshot) (Iterator, error) {
	if err := t.snapCheck(snap); err != nil {
		return nil, err
	}
	return t.scanAt(chain, bounds, snap.Seq())
}

// scanAt opens one Scanner per shard as of seq, stitched when there are
// several.
func (t *Table) scanAt(chain int, bounds ScanBounds, seq uint64) (Iterator, error) {
	if chain < 0 || chain >= len(t.chainCols) {
		return nil, fmt.Errorf("storage: table %q has no chain %d", t.name, chain)
	}
	if len(t.shards) == 1 {
		return t.shards[0].newScan(chain, bounds, seq)
	}
	return newMergeIterator(t, chain, bounds, seq)
}

// RangeScan opens a verified scan over the chain serving column col,
// restricted to column values in [lo, hi] (nil bounds are open). For
// secondary chains the value bounds are translated to composite-key bounds
// so duplicate column values are all covered.
func (t *Table) RangeScan(col int, lo, hi *record.Value) (Iterator, error) {
	chain, bounds, err := t.rangeBounds(col, lo, hi)
	if err != nil {
		return nil, err
	}
	return t.NewScan(chain, bounds)
}

// RangeScanAt is RangeScan evaluated against a pinned snapshot.
func (t *Table) RangeScanAt(col int, lo, hi *record.Value, snap *Snapshot) (Iterator, error) {
	chain, bounds, err := t.rangeBounds(col, lo, hi)
	if err != nil {
		return nil, err
	}
	return t.NewScanAt(chain, bounds, snap)
}

// rangeBounds translates column-value bounds into chain-key scan bounds.
func (t *Table) rangeBounds(col int, lo, hi *record.Value) (int, ScanBounds, error) {
	chain := t.ChainFor(col)
	if chain < 0 {
		return 0, ScanBounds{}, fmt.Errorf("storage: table %q column %d has no access-method chain", t.name, col)
	}
	var bounds ScanBounds
	if lo != nil {
		var k record.Key
		var err error
		if chain == 0 {
			k, err = record.KeyOf(*lo)
		} else {
			k, err = record.CompositeLow(*lo)
		}
		if err != nil {
			return 0, ScanBounds{}, err
		}
		bounds.Start = &k
	}
	if hi != nil {
		var k record.Key
		var err error
		if chain == 0 {
			k, err = record.KeyOf(*hi)
		} else {
			// CompositeHigh is an exclusive bound in chain-key space: the
			// scan must emit keys strictly below it. NewScan treats End as
			// inclusive, which is harmless here because CompositeHigh itself
			// never equals a real composite key (it ends in the bumped
			// terminator 0x00 0x01, real keys embed 0x00 0x00).
			k, err = record.CompositeHigh(*hi)
		}
		if err != nil {
			return 0, ScanBounds{}, err
		}
		bounds.End = &k
	}
	return chain, bounds, nil
}

// SeqScan opens a verified scan of the whole primary chain; on a sharded
// table it stitches the shards in key order like every scan, and on a
// versioned table it owns an implicit snapshot (see NewScan).
func (t *Table) SeqScan() (Iterator, error) { return t.NewScan(0, ScanBounds{}) }

// SeqScanAt is SeqScan evaluated against a pinned snapshot the caller
// owns.
func (t *Table) SeqScanAt(snap *Snapshot) (Iterator, error) {
	return t.NewScanAt(0, ScanBounds{}, snap)
}
