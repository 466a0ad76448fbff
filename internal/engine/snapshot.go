package engine

import "veridb/internal/storage"

// SetSnapshot walks an operator tree and points every storage-reading leaf
// — table scans and index-join inner probes — at the given pinned
// snapshot, so the whole statement reads one consistent committed state
// regardless of concurrent writers (ResetPlan clears it again). The tree
// borrows the snapshot: the caller that pinned it closes it after the
// statement drains. Call before Open, like SetExec.
func SetSnapshot(op Operator, snap *storage.Snapshot) {
	switch x := op.(type) {
	case *TableScan:
		x.Snap = snap
	case *Values:
	case *Filter:
		SetSnapshot(x.Child, snap)
	case *Project:
		SetSnapshot(x.Child, snap)
	case *Limit:
		SetSnapshot(x.Child, snap)
	case *Sort:
		SetSnapshot(x.Child, snap)
	case *Materialize:
		SetSnapshot(x.Child, snap)
	case *HashAggregate:
		SetSnapshot(x.Child, snap)
	case *NestedLoopJoin:
		SetSnapshot(x.Outer, snap)
		SetSnapshot(x.Inner, snap)
	case *IndexJoin:
		x.Snap = snap
		SetSnapshot(x.Outer, snap)
	case *MergeJoin:
		SetSnapshot(x.Left, snap)
		SetSnapshot(x.Right, snap)
	case *HashJoin:
		SetSnapshot(x.Left, snap)
		SetSnapshot(x.Right, snap)
	case *Spool:
		// The spool's temp table is ephemeral (created mid-statement, after
		// the snapshot pinned) and deliberately outside MVCC; only its
		// child reads versioned tables.
		SetSnapshot(x.Child, snap)
	}
}
