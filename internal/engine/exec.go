package engine

import (
	"context"

	"veridb/internal/govern"
	"veridb/internal/record"
	"veridb/internal/storage"
)

// Exec carries the per-statement execution controls: the caller's context
// for cooperative cancellation, a govern.Reservation charged for every
// materialisation the statement performs (sort buffers, hash-join build
// sides, aggregate output, spooled rows, drained results), and the batch
// capacity every buffer the statement allocates is sized to — the drain
// loop's batch, pipeline breakers' input drains, join cursors and probe
// scratch. Operators check the context once per batch, so a cancelled or
// timed-out statement unwinds through the normal error path and the
// existing Close/defer chains release scans, latches and snapshot pins.
//
// A nil *Exec means no cancellation, no accounting and the default
// capacity; every method is nil-safe, so call sites need no guards.
type Exec struct {
	ctx      context.Context
	res      *govern.Reservation
	batchCap int
}

// NewExec builds the statement controls. ctx may be nil (treated as
// background); res may be nil (no memory accounting); batchCap <= 0 means
// storage.DefaultBatchCapacity.
func NewExec(ctx context.Context, res *govern.Reservation, batchCap int) *Exec {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Exec{ctx: ctx, res: res, batchCap: batchCap}
}

// BatchCap is the row capacity of every batch the statement allocates.
// Capacity only sizes buffers: rows, order and errors are the same at
// every value, and 1 moves one row per NextBatch call through the same
// operators.
func (e *Exec) BatchCap() int {
	if e == nil || e.batchCap <= 0 {
		return storage.DefaultBatchCapacity
	}
	return e.batchCap
}

// Err reports the statement's cancellation state: the context error once
// the deadline passed or the caller cancelled, nil otherwise.
func (e *Exec) Err() error {
	if e == nil || e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// ChargeTuples reserves budget for rows the statement just materialised,
// failing with govern.ErrResourceExhausted when the process budget cannot
// cover them.
func (e *Exec) ChargeTuples(rows []record.Tuple) error {
	if e == nil || e.res == nil || len(rows) == 0 {
		return nil
	}
	var n int64
	for _, t := range rows {
		n += record.TupleBytes(t)
	}
	return e.res.Grow(n)
}

// ChargeBytes reserves n estimated bytes for the statement.
func (e *Exec) ChargeBytes(n int64) error {
	if e == nil || e.res == nil {
		return nil
	}
	return e.res.Grow(n)
}

// SetExec walks an operator tree and attaches the statement controls to
// every operator that reads storage, materialises state or buffers an
// input (ResetPlan detaches them again). Call before Open, like
// SetSnapshot: pipeline breakers consume their children inside Open.
func SetExec(op Operator, ex *Exec) {
	switch x := op.(type) {
	case *TableScan:
		x.exec = ex
	case *Values:
	case *Filter:
		SetExec(x.Child, ex)
	case *Project:
		SetExec(x.Child, ex)
	case *Limit:
		SetExec(x.Child, ex)
	case *Sort:
		x.exec = ex
		SetExec(x.Child, ex)
	case *Materialize:
		x.exec = ex
		SetExec(x.Child, ex)
	case *HashAggregate:
		x.exec = ex
		SetExec(x.Child, ex)
	case *NestedLoopJoin:
		x.exec = ex
		SetExec(x.Outer, ex)
		SetExec(x.Inner, ex)
	case *IndexJoin:
		x.exec = ex
		SetExec(x.Outer, ex)
	case *MergeJoin:
		x.exec = ex
		SetExec(x.Left, ex)
		SetExec(x.Right, ex)
	case *HashJoin:
		x.exec = ex
		SetExec(x.Left, ex)
		SetExec(x.Right, ex)
	case *Spool:
		x.exec = ex
		SetExec(x.Child, ex)
	}
}

// Drain runs an operator to completion under the statement controls (ex
// may be nil) and returns all rows: the context is checked and the drained
// rows are charged to the reservation once per batch of ex.BatchCap()
// rows. Drain does not attach ex to the tree; callers whose operators need
// the controls call SetExec first.
func Drain(op Operator, ex *Exec) ([]record.Tuple, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	batch := NewRowBatch(ex.BatchCap())
	var out []record.Tuple
	for {
		if err := ex.Err(); err != nil {
			return nil, err
		}
		n, err := op.NextBatch(batch)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		start := len(out)
		for i := 0; i < n; i++ {
			out = append(out, batch.Row(i))
		}
		if err := ex.ChargeTuples(out[start:]); err != nil {
			return nil, err
		}
	}
}
