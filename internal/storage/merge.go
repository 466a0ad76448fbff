package storage

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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

// stitcher is the k-way merge both merge iterators run over one head per
// shard stream; they differ only in how a head is refilled.
type stitcher struct {
	chain   int
	heads   []mergeHead
	last    record.Key // the key emitted last, in the stitcher's own bytes
	hasLast bool
	err     error
	closed  bool
}

// next emits the smallest head, after checking that keys strictly increase
// across the merged output, and refills it through advance. stop is the
// owning iterator's Close.
func (m *stitcher) next(advance func(i int) error, stop func()) (record.Tuple, bool, error) {
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
		stop()
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
		err = advance(best)
	}
	if err != nil {
		m.err = err
		stop()
		return nil, false, err
	}
	return h.tup, true, nil
}

func (m *stitcher) Err() error { return m.err }

// mergeIterator stitches one Scanner per shard sequentially.
//
// Latch lifetime: a Scanner holds its shard's shared latch only while it
// fills a batch — here, one row — and nothing in between, so a writer is
// never blocked behind an open unfinished merge (regression test
// TestWriterNotBlockedByOpenScan), and the merge never holds two shard
// latches at once.
type mergeIterator struct {
	stitcher
	scs []*Scanner
}

func newMergeIterator(t *Table, chain int, bounds ScanBounds, seq uint64) (*mergeIterator, error) {
	m := &mergeIterator{
		stitcher: stitcher{chain: chain, heads: make([]mergeHead, len(t.shards))},
		scs:      make([]*Scanner, 0, len(t.shards)),
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

func (m *mergeIterator) Next() (record.Tuple, bool, error) { return m.next(m.advance, m.Close) }

// NextBatch fills dst with up to cap(dst.Rows) merged rows. The per-row
// stitch check runs on every row inside the fill, so a batch crossing one
// or more shard boundaries is only handed upward once every stitch point
// in it has verified.
func (m *mergeIterator) NextBatch(dst *RowBatch) (int, error) {
	return FillBatch(m.Next, dst)
}

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

// shardRow is one row (or terminal error) produced by a shard stream.
type shardRow struct {
	tup record.Tuple
	key record.Key
	err error
}

// parallelMergeIterator fans a scan out across shards: one producer
// goroutine per shard drives that shard's verified Scanner and feeds a
// bounded channel; the consumer merges the streams in key order with the
// same stitch check as the sequential path. One producer per shard is a
// correctness requirement, not a tuning choice: the merge cannot emit a
// row until it has a head from every live stream, so capping producers
// below the shard count would deadlock the merge. VerifyWorkers gates
// whether this path is used at all (Table.SeqScan), mirroring how
// VerifyAll fans its partition scans out.
type parallelMergeIterator struct {
	stitcher
	chans []chan shardRow

	// ctx bounds every producer goroutine's lifetime: cancel fires on
	// Close (early closes included — LIMIT plans and short-circuiting
	// joins abandon scans long before exhaustion), and producers select
	// on ctx.Done() around every channel send, so an abandoned scan can
	// never leak its per-shard goroutines.
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	visited atomic.Int64
}

// producerBuf is the per-shard channel depth: enough to keep producers busy
// across consumer stalls without buffering whole shards.
const producerBuf = 64

func newParallelMergeIterator(t *Table, chain int, bounds ScanBounds, seq uint64) (*parallelMergeIterator, error) {
	m := &parallelMergeIterator{
		stitcher: stitcher{chain: chain, heads: make([]mergeHead, len(t.shards))},
		chans:    make([]chan shardRow, len(t.shards)),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for i := range t.shards {
		ch := make(chan shardRow, producerBuf)
		m.chans[i] = ch
		m.wg.Add(1)
		go m.produce(t.shards[i], ch, bounds, seq)
	}
	// Prime the heads so open-time verification failures (condition 1,
	// broken anchors) surface from the constructor like the sequential path.
	for i := range m.chans {
		if err := m.advance(i); err != nil {
			m.err = err
			m.Close()
			return m, err
		}
	}
	return m, nil
}

func (m *parallelMergeIterator) produce(sh *shard, ch chan<- shardRow, bounds ScanBounds, seq uint64) {
	defer m.wg.Done()
	defer close(ch)
	done := m.ctx.Done()
	sc, err := sh.newScan(m.chain, bounds, seq)
	defer func() {
		m.visited.Add(int64(sc.Visited()))
		sc.Close()
	}()
	for err == nil {
		var row shardRow
		var ok bool
		if row.tup, row.key, ok, err = sc.nextKeyed(); err != nil || !ok {
			break
		}
		// The key waits in the channel past the scanner's next call.
		row.key.B = append([]byte(nil), row.key.B...)
		select {
		case ch <- row:
		case <-done:
			return
		}
	}
	if err != nil {
		select {
		case ch <- shardRow{err: err}:
		case <-done:
		}
	}
}

// advance receives the next row from shard stream i.
func (m *parallelMergeIterator) advance(i int) error {
	row, ok := <-m.chans[i]
	m.heads[i] = mergeHead{tup: row.tup, key: row.key, valid: ok && row.err == nil}
	return row.err
}

func (m *parallelMergeIterator) Next() (record.Tuple, bool, error) {
	return m.next(m.advance, m.Close)
}

// NextBatch fills dst with up to cap(dst.Rows) merged rows; the per-row
// stitch check runs inside the fill (see mergeIterator.NextBatch).
func (m *parallelMergeIterator) NextBatch(dst *RowBatch) (int, error) {
	return FillBatch(m.Next, dst)
}

// Close cancels the producers' context and waits for them to finish, so
// their Visited counts are in once Close returns.
func (m *parallelMergeIterator) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.cancel()
	for _, ch := range m.chans {
		// Drain so producers blocked on a full channel exit promptly even
		// though they also select on ctx.Done().
		for range ch {
		}
	}
	m.wg.Wait()
}

// Visited sums the per-shard scanner counts; producers publish their count
// when they finish, so the value is complete once the scan is closed or
// exhausted.
func (m *parallelMergeIterator) Visited() int { return int(m.visited.Load()) }
