package engine

import (
	"veridb/internal/record"
	"veridb/internal/storage"
)

// RowBatch is the unit of data flow between operators: a reusable,
// capacity-bounded batch of rows plus an optional selection vector. It is
// the same type the storage iterators fill, so a batch can travel from the
// verified scan leaf to the portal without reshaping.
type RowBatch = storage.RowBatch

// NewRowBatch allocates a batch with the given capacity.
func NewRowBatch(capacity int) *RowBatch { return storage.NewRowBatch(capacity) }

// ResetPlan walks a compiled operator tree and clears every piece of
// cross-execution state, so a cached plan re-executes as if freshly
// built. Most operators already reset fully in Open; the exceptions are
// the buffering operators whose Open is deliberately fill-once within a
// query (Materialize's row buffer, Spool's temp table) — reuse across
// queries must clear them or the second execution serves the first
// execution's rows.
func ResetPlan(op Operator) {
	switch x := op.(type) {
	case *TableScan, *Values:
	case *Filter:
		ResetPlan(x.Child)
	case *Project:
		ResetPlan(x.Child)
	case *Limit:
		ResetPlan(x.Child)
	case *Sort:
		ResetPlan(x.Child)
	case *Materialize:
		x.rows, x.filled, x.pos = nil, false, 0
		ResetPlan(x.Child)
	case *HashAggregate:
		ResetPlan(x.Child)
	case *NestedLoopJoin:
		ResetPlan(x.Outer)
		ResetPlan(x.Inner)
	case *IndexJoin:
		ResetPlan(x.Outer)
	case *MergeJoin:
		ResetPlan(x.Left)
		ResetPlan(x.Right)
	case *HashJoin:
		ResetPlan(x.Left)
		ResetPlan(x.Right)
	case *Spool:
		_ = x.Drop() // releases the temp table; next Open refills
		ResetPlan(x.Child)
	}
}

// batchCursor hands a child's rows out one at a time while pulling them
// batch-wise underneath: the joins, whose logic is inherently per-row
// (merge advance, nested-loop outer, probe), read their inputs through a
// cursor so the child's whole subtree still runs on batches.
type batchCursor struct {
	child Operator
	buf   *RowBatch
	pos   int
}

func newBatchCursor(child Operator, capacity int) *batchCursor {
	return &batchCursor{child: child, buf: NewRowBatch(capacity)}
}

// reset rewinds the cursor after the child was re-opened.
func (c *batchCursor) reset() {
	c.buf.Reset()
	c.pos = 0
}

func (c *batchCursor) next() (record.Tuple, bool, error) {
	if c.pos < c.buf.Live() {
		t := c.buf.Row(c.pos)
		c.pos++
		return t, true, nil
	}
	n, err := c.child.NextBatch(c.buf)
	if err != nil {
		return nil, false, err
	}
	if n == 0 {
		return nil, false, nil
	}
	c.pos = 1
	return c.buf.Row(0), true, nil
}

// emitRows copies the next chunk of a materialised row buffer into dst —
// the shared NextBatch body for operators that buffer their output (Sort,
// Materialize, HashAggregate, Values).
func emitRows(rows []record.Tuple, pos *int, dst *RowBatch) (int, error) {
	dst.Reset()
	for *pos < len(rows) && dst.N < len(dst.Rows) {
		dst.Rows[dst.N] = rows[*pos]
		dst.N++
		*pos++
	}
	return dst.N, nil
}
