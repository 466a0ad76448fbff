package storage

import (
	"fmt"
	"math"

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

	// born is the commit seq the table was created at; snapshots pinned
	// below it must not scan the table (their catalog predates it).
	born uint64
}

func newTable(s *Store, name string, schema *record.Schema, chainCols []int, nShards int) (*Table, error) {
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
	var buf [32]byte // most keys encode on the stack
	return t.shards[index.ShardOf(pk.AppendEncode(buf[:0]), len(t.shards))]
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

// latest is the read seq of a nil snapshot: every committed version is at
// or below it, so a read at latest sees the live chain.
const latest = math.MaxUint64

// commitFor is the nil rule every write goes through: a nil c means the
// write commits alone, under a commit begun here and returned as owned for
// the caller to end (owned is otherwise nil, whose Done does nothing).
func (t *Table) commitFor(c *Commit) (use, owned *Commit) {
	if c != nil {
		return c, nil
	}
	c = t.store.BeginCommit()
	return c, c
}

// InsertAt adds a tuple to the shard its primary key routes to,
// maintaining every chain (§4.2 Insert). All writes sharing c become
// visible to snapshot readers atomically at c.Done; a nil c commits the
// write alone.
func (t *Table) InsertAt(tup record.Tuple, c *Commit) error {
	if err := t.schema.Validate(tup); err != nil {
		return err
	}
	tup = t.schema.Coerce(tup)
	pk, err := record.KeyOf(tup[t.chainCols[0]])
	if err != nil {
		return fmt.Errorf("storage: table %q: %w", t.name, err)
	}
	c, owned := t.commitFor(c)
	defer owned.Done()
	return t.shardFor(pk).insert(tup, pk, c)
}

// DeleteAt removes the row with the given primary-key value (§4.2 Delete:
// unlink from every chain, then drop the record; space reclamation is
// deferred to the verification scan), under c as InsertAt.
func (t *Table) DeleteAt(pkVal record.Value, c *Commit) error {
	pk, err := record.KeyOf(pkVal)
	if err != nil {
		return err
	}
	c, owned := t.commitFor(c)
	defer owned.Done()
	return t.shardFor(pk).delete(pk, c)
}

// UpdateFuncAt atomically reads the row with the given primary key,
// applies mutate to a copy, and writes the result back, all under the
// owning shard's write latch — the read-modify-write primitive
// transactional workloads need (lost updates are otherwise possible
// between a read and UpdateAt). Chain-key columns must not change; use
// UpdateAt for key-changing writes. c as in InsertAt.
func (t *Table) UpdateFuncAt(pkVal record.Value, mutate func(record.Tuple) (record.Tuple, error), c *Commit) error {
	pk, err := record.KeyOf(pkVal)
	if err != nil {
		return err
	}
	c, owned := t.commitFor(c)
	defer owned.Done()
	return t.shardFor(pk).updateFunc(pkVal, pk, mutate, c)
}

// UpdateAt replaces the row with the given primary key by newTup, under c
// as InsertAt. When no chain key changes, the data field is rewritten in
// place (§4.2 Update: "there is no need to update the key chain"). When
// only a secondary chain key changes, the row is deleted and re-inserted
// under one hold of the shard latch. When the primary key changes, the row
// under the new key is inserted first — re-routed if the key hashes to
// another shard — and the old row deleted after, so an update onto an
// existing key fails with ErrDuplicateKey and leaves the row as it was.
func (t *Table) UpdateAt(pkVal record.Value, newTup record.Tuple, c *Commit) error {
	if err := t.schema.Validate(newTup); err != nil {
		return err
	}
	newTup = t.schema.Coerce(newTup)
	pk, err := record.KeyOf(pkVal)
	if err != nil {
		return err
	}
	newPK, err := record.KeyOf(newTup[t.chainCols[0]])
	if err != nil {
		return err
	}
	c, owned := t.commitFor(c)
	defer owned.Done()
	if newPK.Equal(pk) {
		return t.shardFor(pk).update(pkVal, pk, newTup, c)
	}
	// Same commit: the insert and the delete are one version transition,
	// invisible as separate steps to any snapshot.
	if err := t.shardFor(newPK).insert(newTup, newPK, c); err != nil {
		return err
	}
	if err := t.shardFor(pk).delete(pk, c); err != nil {
		if uerr := t.shardFor(newPK).delete(newPK, c); uerr != nil {
			return fmt.Errorf("storage: update of %v kept its row under both keys: %w (undo: %v)", pkVal, err, uerr)
		}
		return err
	}
	return nil
}

// Get is GetAt at the latest state.
func (t *Table) Get(v record.Value) (record.Tuple, Evidence, error) { return t.GetAt(v, nil) }

// readSeq is the nil rule every read goes through: a nil snap reads the
// latest state, any other snap its pinned seq, which must not predate the
// table.
func (t *Table) readSeq(snap *Snapshot) (uint64, error) {
	switch {
	case snap == nil:
		return latest, nil
	case snap.Seq() < t.born:
		return 0, fmt.Errorf("storage: table %q was created at seq %d, after snapshot %d", t.name, t.born, snap.Seq())
	}
	return snap.Seq(), nil
}

// GetAt is the verified index search of §5.2, SELECT * WHERE pk = v, as of
// snap. The probe routes to the single shard that could hold the key; the
// untrusted index supplies a candidate location and the record visible at
// the snapshot must satisfy key == v (present) or key < v < nKey (absent),
// otherwise ErrVerifyFailed is returned. A nil snap reads the live version
// under the owning shard's latch.
func (t *Table) GetAt(v record.Value, snap *Snapshot) (record.Tuple, Evidence, error) {
	seq, err := t.readSeq(snap)
	if err != nil {
		return nil, Evidence{}, err
	}
	pk, err := record.KeyOf(v)
	if err != nil {
		return nil, Evidence{}, err
	}
	return t.shardFor(pk).searchChainAt(0, pk, seq)
}

// NewScan opens a verified scan of the given chain over bounds as of snap.
// For chain 0 the bounds are primary keys; for secondary chains callers
// pass composite bounds (record.CompositeLow/High). On a sharded table the
// scan stitches every shard's sub-chain in key order.
//
// The caller keeps ownership of a non-nil snap (one snapshot can serve many
// scans). With a nil snap the table is scanned at a snapshot the scan pins
// itself at the current commit watermark and releases at Close.
func (t *Table) NewScan(chain int, bounds ScanBounds, snap *Snapshot) (Iterator, error) {
	if snap == nil {
		snap = t.store.OpenSnapshot()
		it, err := t.NewScan(chain, bounds, snap)
		if err != nil {
			snap.Close()
			return it, err
		}
		return &snapClosingIter{Iterator: it, snap: snap}, nil
	}
	seq, err := t.readSeq(snap)
	if err != nil {
		return nil, err
	}
	if chain < 0 || chain >= len(t.chainCols) {
		return nil, fmt.Errorf("storage: table %q has no chain %d", t.name, chain)
	}
	if len(t.shards) == 1 {
		return t.shards[0].newScan(chain, bounds, seq)
	}
	return newMergeIterator(t, chain, bounds, seq)
}

// RangeScan is RangeScanAt at the latest state.
func (t *Table) RangeScan(col int, lo, hi *record.Value) (Iterator, error) {
	return t.RangeScanAt(col, lo, hi, nil)
}

// RangeScanAt opens a verified scan over the chain serving column col,
// restricted to column values in [lo, hi] (nil bounds are open), as of
// snap (see NewScan). For secondary chains the value bounds are translated
// to composite-key bounds so duplicate column values are all covered.
func (t *Table) RangeScanAt(col int, lo, hi *record.Value, snap *Snapshot) (Iterator, error) {
	chain, bounds, err := t.rangeBounds(col, lo, hi)
	if err != nil {
		return nil, err
	}
	return t.NewScan(chain, bounds, snap)
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

// SeqScan is SeqScanAt at the latest state.
func (t *Table) SeqScan() (Iterator, error) { return t.SeqScanAt(nil) }

// SeqScanAt opens a verified scan of the whole primary chain as of snap
// (see NewScan); on a sharded table it stitches the shards in key order
// like every scan.
func (t *Table) SeqScanAt(snap *Snapshot) (Iterator, error) {
	return t.NewScan(0, ScanBounds{}, snap)
}
