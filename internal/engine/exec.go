package engine

import (
	"context"
	"fmt"
	"slices"

	"veridb/internal/govern"
	"veridb/internal/record"
	"veridb/internal/storage"
)

// Exec carries the per-statement execution controls: the caller's context
// for cooperative cancellation, the snapshot every storage read of the
// statement resolves against, a govern.Reservation charged for every
// materialisation the statement performs (sort buffers, hash-join build
// sides, aggregate output, drained results), and the batch
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
	snap     *storage.Snapshot
}

// Reset points e at one statement: ctx may be nil (treated as
// background); res may be nil (no memory accounting); batchCap <= 0 means
// storage.DefaultBatchCapacity; snap may be nil (every read at the latest
// state, under storage's nil rules). The statement borrows snap: the
// caller that pinned it closes it after the statement drains. A plan run
// statement after statement (a cached plan instance's) points one Exec at
// each, and detaches it after with Reset(nil, nil, 0, nil).
func (e *Exec) Reset(ctx context.Context, res *govern.Reservation, batchCap int, snap *storage.Snapshot) {
	if ctx == nil {
		ctx = context.Background()
	}
	*e = Exec{ctx: ctx, res: res, batchCap: batchCap, snap: snap}
}

// Snapshot is the pinned snapshot the statement's table scans and index
// probes read, so a multi-scan plan (joins, self-joins, a nested-loop
// join's inner rescans) observes one committed state; nil reads the latest state.
func (e *Exec) Snapshot() *storage.Snapshot {
	if e == nil {
		return nil
	}
	return e.snap
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

// SetExec walks an operator tree and attaches the statement controls to
// every operator that reads storage, materialises state or buffers an
// input (ResetPlan detaches them again). Call before Open: pipeline
// breakers consume their children inside Open.
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
	}
}

// Names returns the names of op's output columns and whether they are
// fixed: the same at every execution of the plan. They are unless the
// projection on top heads a column by its live source form
// (Project.Titles), which renders it anew after each rebinding; a plan
// without a projection (SELECT *) reports its input's column names.
func Names(op Operator) ([]string, bool) {
	schema := op.Schema()
	names := make([]string, len(schema))
	for i, c := range schema {
		names[i] = c.Name
	}
	return names, fixedNames(op)
}

func fixedNames(op Operator) bool {
	switch x := op.(type) {
	case *Limit:
		return fixedNames(x.Child)
	case *Sort:
		return fixedNames(x.Child)
	case *Project:
		return !slices.ContainsFunc(x.Titles, func(t fmt.Stringer) bool { return t != nil })
	}
	return true
}

// Drain runs an operator to completion under the statement controls (ex
// may be nil) and returns all rows: the context is checked and the drained
// rows are charged to the reservation once per batch of ex.BatchCap()
// rows. Drain does not attach ex to the tree; callers whose operators need
// the controls call SetExec first.
func Drain(op Operator, ex *Exec) ([]record.Tuple, error) {
	rows, _, err := DrainThrough(op, ex, NewRowBatch(ex.BatchCap()))
	return rows, err
}

// DrainThrough is Drain through a batch its caller keeps from one
// execution of a plan to the next — nil the first time, then the batch the
// last call returned — so a plan run statement after statement allocates
// its drain batch once. The batch has ex.BatchCap() rows, as Drain's: its
// size sets how far the scans below read ahead of a Limit or a failing
// expression, so a kept plan must read as a fresh one would. It comes back
// holding no row.
func DrainThrough(op Operator, ex *Exec, batch *RowBatch) ([]record.Tuple, *RowBatch, error) {
	if batch == nil || batch.Cap() != ex.BatchCap() {
		batch = NewRowBatch(ex.BatchCap())
	}
	defer func() {
		clear(batch.Rows)
		batch.Reset()
	}()
	if err := op.Open(); err != nil {
		return nil, batch, err
	}
	defer op.Close()
	var out []record.Tuple
	for {
		if err := ex.Err(); err != nil {
			return nil, batch, err
		}
		n, err := op.NextBatch(batch)
		if err != nil {
			return nil, batch, err
		}
		if n == 0 {
			return out, batch, nil
		}
		start := len(out)
		for i := 0; i < n; i++ {
			out = append(out, batch.Row(i))
		}
		if err := ex.ChargeTuples(out[start:]); err != nil {
			return nil, batch, err
		}
	}
}
