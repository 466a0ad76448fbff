package storage

import (
	"fmt"

	"veridb/internal/record"
)

// Cross-shard scan stitching. Every shard owns a complete ⊥/⊤-anchored
// sub-chain, so a per-shard Scanner proves the three §5.2 conditions for
// the keys that route to that shard; since routing is a total function
// (each key hashes to exactly one shard), the union of the per-shard
// result streams is complete for the whole range. The merge replays the
// streams in global key order and verifies the stitch points: emitted keys
// must be strictly increasing across shard boundaries, so two shards can
// never both claim a key (a duplicate would mean the untrusted host
// replayed a record into a second shard's stream).

// mergeHead is one shard stream's current front row.
type mergeHead struct {
	tup   record.Tuple
	key   record.Key
	valid bool
}

// mergeIterator stitches one Scanner per shard sequentially: a k-way merge
// over one head per shard stream.
//
// Latch lifetime: a Scanner holds its shard's shared latch only while it
// fills a batch — here, one row — and nothing in between, so a writer is
// never blocked behind an open unfinished merge (regression test
// TestWriterNotBlockedByOpenScan), and the merge never holds two shard
// latches at once.
type mergeIterator struct {
	chain   int
	scs     []*Scanner
	heads   []mergeHead
	last    record.Key // the key emitted last, in the merge's own bytes
	hasLast bool
	err     error
	closed  bool
}

func newMergeIterator(t *Table, chain int, bounds ScanBounds, seq uint64) (*mergeIterator, error) {
	m := &mergeIterator{
		chain: chain,
		scs:   make([]*Scanner, 0, len(t.shards)),
		heads: make([]mergeHead, len(t.shards)),
	}
	for i, sh := range t.shards {
		sc, err := sh.newScan(chain, bounds, seq)
		m.scs = append(m.scs, sc)
		if err == nil {
			err = m.advance(i)
		}
		if err != nil {
			m.err = err
			m.Close()
			return m, err
		}
	}
	return m, nil
}

// advance pulls the next row from shard stream i into its head.
func (m *mergeIterator) advance(i int) error {
	tup, key, ok, err := m.scs[i].nextKeyed()
	m.heads[i] = mergeHead{tup: tup, key: key, valid: ok}
	return err
}

// Next emits the smallest head, after checking that keys strictly increase
// across the merged output, and refills it from its shard.
func (m *mergeIterator) Next() (record.Tuple, bool, error) {
	if m.err != nil || m.closed {
		return nil, false, m.err
	}
	best := -1
	for i := range m.heads {
		if m.heads[i].valid && (best < 0 || m.heads[i].key.Compare(m.heads[best].key) < 0) {
			best = i
		}
	}
	if best < 0 {
		m.Close()
		return nil, false, nil
	}
	h := m.heads[best]
	var err error
	if m.hasLast && h.key.Compare(m.last) <= 0 {
		err = fmt.Errorf("%w: chain %d stitch violation: key %v not above %v (duplicate across shards)",
			ErrVerifyFailed, m.chain, h.key, m.last)
	} else {
		// A head's key is only good until its stream advances: copy it.
		m.last, m.hasLast = record.Key{Kind: h.key.Kind, B: append(m.last.B[:0], h.key.B...)}, true
		err = m.advance(best)
	}
	if err != nil {
		m.err = err
		m.Close()
		return nil, false, err
	}
	return h.tup, true, nil
}

// NextBatch fills dst with up to cap(dst.Rows) merged rows. The per-row
// stitch check runs on every row inside the fill, so a batch crossing one
// or more shard boundaries is only handed upward once every stitch point
// in it has verified.
func (m *mergeIterator) NextBatch(dst *RowBatch) (int, error) {
	return FillBatch(m.Next, dst)
}

func (m *mergeIterator) Err() error { return m.err }

func (m *mergeIterator) Close() {
	m.closed = true
	for _, sc := range m.scs {
		sc.Close()
	}
}

func (m *mergeIterator) Visited() int {
	n := 0
	for _, sc := range m.scs {
		n += sc.Visited()
	}
	return n
}
