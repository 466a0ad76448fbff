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

// ResetPlan detaches an operator tree from the statement that just ran it:
// the statement controls and the snapshot they carry, every materialised
// row (sort and join buffers, Materialize's fill-once buffer), every
// cursor over a child and the rows left in scratch batches. What
// remains is the compiled plan and scratch capacity, so a plan waiting in
// the cache pins no reservation, no snapshot and no row, and its next
// execution — after SetExec — starts as a fresh build
// would. core runs it after every execution, failed ones included.
func ResetPlan(op Operator) {
	switch x := op.(type) {
	case *TableScan:
		x.exec = nil
	case *Values:
	case *Filter:
		ResetPlan(x.Child)
	case *Project:
		if x.in != nil {
			clear(x.in.Rows)
			x.in.Reset()
		}
		ResetPlan(x.Child)
	case *Limit:
		ResetPlan(x.Child)
	case *Sort:
		x.exec, x.rows = nil, nil
		ResetPlan(x.Child)
	case *Materialize:
		x.exec, x.rows, x.filled, x.pos = nil, nil, false, 0
		ResetPlan(x.Child)
	case *HashAggregate:
		x.exec, x.out = nil, nil
		ResetPlan(x.Child)
	case *NestedLoopJoin:
		x.exec, x.ocur, x.icur, x.cur = nil, nil, nil, nil
		ResetPlan(x.Outer)
		ResetPlan(x.Inner)
	case *IndexJoin:
		x.exec, x.ocur, x.pb, x.cur, x.matches = nil, nil, nil, nil, nil
		ResetPlan(x.Outer)
	case *MergeJoin:
		x.exec, x.lc, x.rc, x.lrow, x.rrow, x.group = nil, nil, nil, nil, nil, nil
		x.lkey, x.rkey = record.Value{}, record.Value{}
		ResetPlan(x.Left)
		ResetPlan(x.Right)
	case *HashJoin:
		x.exec, x.lcur, x.table, x.cur, x.matches = nil, nil, nil, nil, nil
		ResetPlan(x.Left)
		ResetPlan(x.Right)
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
