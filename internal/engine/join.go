package engine

import (
	"veridb/internal/record"
	"veridb/internal/storage"
)

// concatSchema joins two schemas side by side.
func concatSchema(l, r Schema) Schema {
	out := make(Schema, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

func concatTuples(l, r record.Tuple) record.Tuple {
	out := make(record.Tuple, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// NestedLoopJoin re-opens the inner operator for every outer row and emits
// concatenated rows passing On (which may be nil for a cross product).
// This is the Q19 "NestedLoopJoin" plan shape of §6.3.
type NestedLoopJoin struct {
	Outer, Inner Operator
	On           *Compiled // compiled against the concatenated schema

	exec       *Exec // statement controls; see SetExec
	ocur, icur *batchCursor
	cur        record.Tuple
	innerOpen  bool
}

// Schema concatenates outer and inner schemas.
func (j *NestedLoopJoin) Schema() Schema {
	return concatSchema(j.Outer.Schema(), j.Inner.Schema())
}

// Open opens the outer side.
func (j *NestedLoopJoin) Open() error {
	j.cur = nil
	j.innerOpen = false
	j.ocur = newBatchCursor(j.Outer, j.exec.BatchCap())
	j.icur = newBatchCursor(j.Inner, j.exec.BatchCap())
	return j.Outer.Open()
}

// next produces the next joined row. Both sides are pulled through batch
// cursors, so their subtrees run on batches while the join logic itself
// stays per-row.
func (j *NestedLoopJoin) next() (record.Tuple, bool, error) {
	for {
		if j.cur == nil {
			t, ok, err := j.ocur.next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			if j.innerOpen {
				j.Inner.Close()
			}
			if err := j.Inner.Open(); err != nil {
				return nil, false, err
			}
			j.icur.reset()
			j.innerOpen = true
		}
		it, ok, err := j.icur.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.cur = nil
			continue
		}
		row := concatTuples(j.cur, it)
		if j.On != nil {
			pass, err := j.On.EvalBool(row)
			if err != nil {
				return nil, false, err
			}
			if !pass {
				continue
			}
		}
		return row, true, nil
	}
}

// Close closes both sides.
func (j *NestedLoopJoin) Close() error {
	if j.innerOpen {
		j.Inner.Close()
		j.innerOpen = false
	}
	return j.Outer.Close()
}

// NextBatch fills dst with joined rows; inputs stream batch-wise through
// the cursors.
func (j *NestedLoopJoin) NextBatch(dst *RowBatch) (int, error) {
	return storage.FillBatch(j.next, dst)
}

// IndexJoin pulls, for each outer row, the matching inner rows through the
// verified index search / range scan on the inner table's chain — the
// paper's running example plan (Fig. 7: Join with IndexSearch on
// inventory.id).
type IndexJoin struct {
	Outer      Operator
	InnerTable storage.Engine
	InnerAlias string
	// InnerCol is the chained inner column the key probes.
	InnerCol int
	// OuterKey computes the probe value from the outer row.
	OuterKey *Compiled
	// Residual filters concatenated rows (nil: none).
	Residual *Compiled

	exec    *Exec // statement controls and snapshot; see SetExec
	ocur    *batchCursor
	pb      *RowBatch // probe-scan scratch batch
	cur     record.Tuple
	matches []record.Tuple
	mi      int
}

// Schema concatenates outer and inner schemas.
func (j *IndexJoin) Schema() Schema {
	cols := j.InnerTable.Schema().Columns
	inner := make(Schema, len(cols))
	for i, c := range cols {
		inner[i] = Col{Table: j.InnerAlias, Name: c.Name, Type: c.Type}
	}
	return concatSchema(j.Outer.Schema(), inner)
}

// Open opens the outer side.
func (j *IndexJoin) Open() error {
	j.cur, j.matches, j.mi = nil, nil, 0
	j.ocur = newBatchCursor(j.Outer, j.exec.BatchCap())
	return j.Outer.Open()
}

// next produces the next joined row.
func (j *IndexJoin) next() (record.Tuple, bool, error) {
	for {
		for j.mi < len(j.matches) {
			row := concatTuples(j.cur, j.matches[j.mi])
			j.mi++
			if j.Residual != nil {
				pass, err := j.Residual.EvalBool(row)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return row, true, nil
		}
		t, ok, err := j.ocur.next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = t
		key, err := j.OuterKey.Eval(t)
		if err != nil {
			return nil, false, err
		}
		j.matches, err = j.probe(key)
		if err != nil {
			return nil, false, err
		}
		j.mi = 0
	}
}

// probe fetches verified matches for one key value.
func (j *IndexJoin) probe(key record.Value) ([]record.Tuple, error) {
	if key.Null {
		return nil, nil // NULL joins nothing
	}
	if j.InnerCol == j.InnerTable.PrimaryKeyColumn() {
		// The probe routes to the single shard owning the key.
		tup, ev, err := j.InnerTable.GetAt(key, j.exec.Snapshot())
		if err != nil {
			return nil, err
		}
		if !ev.Found {
			return nil, nil
		}
		return []record.Tuple{tup}, nil
	}
	// Secondary-chain probes fan out: every shard's sub-chain contributes
	// its matches (and its absence proof) for the key.
	sc, err := j.InnerTable.RangeScanAt(j.InnerCol, &key, &key, j.exec.Snapshot())
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	// The verified scan fills the scratch batch.
	if j.pb == nil || j.pb.Cap() != j.exec.BatchCap() {
		j.pb = NewRowBatch(j.exec.BatchCap())
	}
	var out []record.Tuple
	for {
		n, err := sc.NextBatch(j.pb)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		for i := 0; i < n; i++ {
			out = append(out, j.pb.Row(i))
		}
	}
}

// Close closes the outer side.
func (j *IndexJoin) Close() error {
	j.matches = nil
	return j.Outer.Close()
}

// NextBatch fills dst with joined rows; the outer input and the probe
// drains stream batch-wise.
func (j *IndexJoin) NextBatch(dst *RowBatch) (int, error) {
	return storage.FillBatch(j.next, dst)
}

// MergeJoin equi-joins two inputs already sorted on their join keys —
// Q19's low-compute plan in §6.3. Duplicate key groups on the right are
// buffered.
type MergeJoin struct {
	Left, Right        Operator
	LeftKey, RightKey  *Compiled // compiled against the respective schemas
	Residual           *Compiled // against the concatenated schema; may be nil
	exec               *Exec     // statement controls; see SetExec
	lc, rc             *batchCursor
	lrow               record.Tuple
	lkey               record.Value
	group              []record.Tuple // right rows sharing the current key
	gi                 int
	rrow               record.Tuple // right look-ahead
	rkey               record.Value
	leftDone, skipSame bool
}

// Schema concatenates the inputs.
func (j *MergeJoin) Schema() Schema {
	return concatSchema(j.Left.Schema(), j.Right.Schema())
}

// Open opens both inputs.
func (j *MergeJoin) Open() error {
	j.lrow, j.group, j.gi, j.rrow = nil, nil, 0, nil
	j.leftDone, j.skipSame = false, false
	j.lc = newBatchCursor(j.Left, j.exec.BatchCap())
	j.rc = newBatchCursor(j.Right, j.exec.BatchCap())
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	return j.advanceRight()
}

func (j *MergeJoin) advanceLeft() error {
	t, ok, err := j.lc.next()
	if err != nil {
		return err
	}
	if !ok {
		j.leftDone = true
		j.lrow = nil
		return nil
	}
	j.lrow = t
	j.lkey, err = j.LeftKey.Eval(t)
	return err
}

func (j *MergeJoin) advanceRight() error {
	t, ok, err := j.rc.next()
	if err != nil {
		return err
	}
	if !ok {
		j.rrow = nil
		return nil
	}
	j.rrow = t
	j.rkey, err = j.RightKey.Eval(t)
	return err
}

// fillGroup collects all right rows equal to key into the group buffer.
func (j *MergeJoin) fillGroup(key record.Value) error {
	j.group = j.group[:0]
	for j.rrow != nil {
		c, err := j.rkey.Compare(key)
		if err != nil {
			return err
		}
		if c != 0 {
			break
		}
		j.group = append(j.group, j.rrow)
		if err := j.advanceRight(); err != nil {
			return err
		}
	}
	return nil
}

// next produces the next joined row.
func (j *MergeJoin) next() (record.Tuple, bool, error) {
	for {
		for j.gi < len(j.group) {
			row := concatTuples(j.lrow, j.group[j.gi])
			j.gi++
			if j.Residual != nil {
				pass, err := j.Residual.EvalBool(row)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return row, true, nil
		}
		// Need a new left row.
		prevKey := j.lkey
		hadLeft := j.lrow != nil
		if err := j.advanceLeft(); err != nil {
			return nil, false, err
		}
		if j.leftDone {
			return nil, false, nil
		}
		if j.lkey.Null {
			j.group, j.gi = nil, 0 // NULL keys join nothing
			continue
		}
		// Same key as the previous left row: reuse the group.
		if hadLeft && !prevKey.Null {
			if c, err := j.lkey.Compare(prevKey); err == nil && c == 0 {
				j.gi = 0
				continue
			}
		}
		// Advance the right side to the new key.
		for j.rrow != nil {
			c, err := j.rkey.Compare(j.lkey)
			if err != nil {
				return nil, false, err
			}
			if c >= 0 {
				break
			}
			if err := j.advanceRight(); err != nil {
				return nil, false, err
			}
		}
		if err := j.fillGroup(j.lkey); err != nil {
			return nil, false, err
		}
		j.gi = 0
		if len(j.group) == 0 {
			continue
		}
	}
}

// Close closes both inputs.
func (j *MergeJoin) Close() error {
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// NextBatch fills dst with joined rows; both sorted inputs stream
// batch-wise through the cursors.
func (j *MergeJoin) NextBatch(dst *RowBatch) (int, error) {
	return storage.FillBatch(j.next, dst)
}

// HashJoin builds a hash table on the right input and probes with the
// left — the fallback equi-join when no chain serves the join column.
type HashJoin struct {
	Left, Right       Operator
	LeftKey, RightKey *Compiled
	Residual          *Compiled

	exec    *Exec // statement controls; see SetExec
	lcur    *batchCursor
	table   map[string][]record.Tuple
	cur     record.Tuple
	matches []record.Tuple
	mi      int
}

// Schema concatenates the inputs.
func (j *HashJoin) Schema() Schema {
	return concatSchema(j.Left.Schema(), j.Right.Schema())
}

// Open drains the right (build) input into the hash table.
func (j *HashJoin) Open() error {
	j.table = make(map[string][]record.Tuple)
	j.cur, j.matches, j.mi = nil, nil, 0
	j.lcur = newBatchCursor(j.Left, j.exec.BatchCap())
	rows, err := Drain(j.Right, j.exec)
	if err != nil {
		return err
	}
	for _, r := range rows {
		k, err := j.RightKey.Eval(r)
		if err != nil {
			return err
		}
		if k.Null {
			continue
		}
		gk := groupKey([]record.Value{k})
		j.table[gk] = append(j.table[gk], r)
	}
	return j.Left.Open()
}

// next probes the table with successive left rows.
func (j *HashJoin) next() (record.Tuple, bool, error) {
	for {
		for j.mi < len(j.matches) {
			row := concatTuples(j.cur, j.matches[j.mi])
			j.mi++
			if j.Residual != nil {
				pass, err := j.Residual.EvalBool(row)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return row, true, nil
		}
		t, ok, err := j.lcur.next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = t
		k, err := j.LeftKey.Eval(t)
		if err != nil {
			return nil, false, err
		}
		if k.Null {
			j.matches = nil
			continue
		}
		j.matches = j.table[groupKey([]record.Value{k})]
		j.mi = 0
	}
}

// Close closes the left input and drops the table.
func (j *HashJoin) Close() error {
	j.table = nil
	return j.Left.Close()
}

// NextBatch fills dst with joined rows; the probe input streams batch-wise
// through the cursor and the build side was drained batch-wise in Open.
func (j *HashJoin) NextBatch(dst *RowBatch) (int, error) {
	return storage.FillBatch(j.next, dst)
}
