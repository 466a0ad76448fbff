package storage

import (
	"veridb/internal/record"
)

// DefaultBatchCapacity is the batch size the executor uses when nothing
// overrides it. 256 rows keeps a batch of typical tuples well under the
// simulated EPC budget while amortising the per-row interface-call chain
// (scan → filter → join → agg → portal) across the whole batch.
const DefaultBatchCapacity = 256

// RowBatch is a reusable, capacity-bounded batch of decoded rows plus an
// optional selection vector — the unit of data flow for the batched
// execution pipeline.
//
// Ownership: the batch (Rows slice, selection vector) belongs to whoever
// passes it to NextBatch and is overwritten by the next fill. Each tuple
// in it, and the string its text values are substrings of, is allocated
// for that row alone and shares no memory with the producer — not with the
// scanner's record-image buffer, which is reused from one record to the
// next, nor with a shared MVCC history image, which is cloned — so a
// consumer may keep a row (Sort, a join's build side, LIMIT's output)
// after the batch is refilled and after the scan is closed. Chain keys
// never travel in a batch; the scanner's own are good only until its next
// record.
//
// Rows[:N] hold the rows produced by the last fill. Sel, when non-nil,
// lists the indices of Rows[:N] that are live — filters mark rows dead by
// shrinking the selection instead of compacting the batch, so a chain of
// filters touches each row's memory once.
//
// Cols is the projection a verified scan fills the batch with: the table
// columns, in table order, that each row holds (nil: all of them). Whoever
// hands the batch to a scan sets it, and Reset leaves it alone. A sharded
// scan fixes its projection at its first fill.
type RowBatch struct {
	Rows []record.Tuple
	N    int
	Sel  []int
	Cols []int
}

// NewRowBatch allocates a batch with the given capacity (minimum 1).
func NewRowBatch(capacity int) *RowBatch {
	if capacity < 1 {
		capacity = 1
	}
	return &RowBatch{Rows: make([]record.Tuple, capacity)}
}

// Cap returns the batch capacity.
func (b *RowBatch) Cap() int { return len(b.Rows) }

// Reset empties the batch and clears its selection.
func (b *RowBatch) Reset() {
	b.N = 0
	b.Sel = nil
}

// Live returns the number of selected (live) rows.
func (b *RowBatch) Live() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Row returns the i-th live row (0 ≤ i < Live()).
func (b *RowBatch) Row(i int) record.Tuple {
	if b.Sel != nil {
		return b.Rows[b.Sel[i]]
	}
	return b.Rows[i]
}

// Append adds a row to the batch (caller must respect Cap; Sel must be
// nil). It returns true while the batch has room for more rows.
func (b *RowBatch) Append(t record.Tuple) bool {
	b.Rows[b.N] = t
	b.N++
	return b.N < len(b.Rows)
}

// FillBatch resets dst and pulls rows from next until dst is full or the
// stream ends. It is the shared NextBatch implementation for row-at-a-time
// sources: per-row verification happens inside next exactly as on the
// scalar path, the batch only carries the verified rows upward. On error
// the partially filled batch is discarded (the scalar path equally yields
// no further rows after an error).
func FillBatch(next func() (record.Tuple, bool, error), dst *RowBatch) (int, error) {
	dst.Reset()
	for dst.N < len(dst.Rows) {
		tup, ok, err := next()
		if err != nil {
			dst.Reset()
			return 0, err
		}
		if !ok {
			break
		}
		dst.Rows[dst.N] = tup
		dst.N++
	}
	return dst.N, nil
}
