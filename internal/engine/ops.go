package engine

import (
	"fmt"
	"sort"

	"veridb/internal/record"
	"veridb/internal/storage"
)

// Operator is the iterator interface every engine operator implements,
// and the only one: §5.4's volcano model with the batch, not the tuple, as
// the unit an operator outputs when triggered. NextBatch fills dst with up
// to dst.Cap() output rows and returns the number of live rows; (0, nil)
// means the operator is exhausted. Filters mark rows dead through dst.Sel
// instead of compacting, so consumers must read rows through dst.Row(i) /
// dst.Live(). Capacity never changes what comes out — rows, order and
// errors are the same at every dst.Cap(), 1 included (the capacity tests
// pin this down to the portal's MACed response digests).
//
// Open may be called again after Close to restart the operator
// (nested-loop inners rely on this).
type Operator interface {
	Schema() Schema
	Open() error
	NextBatch(dst *RowBatch) (int, error)
	Close() error
}

// TableScan is the verified sequential/range scan leaf (§5.2). With no
// bounds it scans the whole primary chain ("SeqScan, treated as RangeScan
// for range (⊥,⊤)", §5.4); with bounds on a chained column it becomes a
// verified range scan on that column's chain.
type TableScan struct {
	Table storage.Engine
	Alias string
	// Col is the bounded column index; -1 scans the primary chain fully.
	Col int
	// Lo and Hi are the candidate bounds on Col, each a pointer into the
	// statement's AST (a literal node's Val). Open reads them, so a cached
	// plan follows its statement's rebinding, and scans from the greatest
	// Lo to the least Hi: which of two same-side bounds is tighter depends
	// on the values bound, not on the shape planned.
	Lo, Hi []*record.Value
	// Cols, when set, is the scan's projection: the table columns, in
	// table order, its rows hold and its schema lists. The planner keeps
	// the columns a statement reads; nil keeps them all.
	Cols []int

	exec    *Exec // statement controls and snapshot; see SetExec
	sc      storage.Iterator
	visited int
}

// NewTableScan builds a full scan over the primary chain.
func NewTableScan(t storage.Engine, alias string) *TableScan {
	return &TableScan{Table: t, Alias: alias, Col: -1}
}

// NewRangeScan builds a verified range scan on col's chain between the
// tightest of the lower and of the upper bounds (none: open on that side).
func NewRangeScan(t storage.Engine, alias string, col int, lo, hi []*record.Value) *TableScan {
	return &TableScan{Table: t, Alias: alias, Col: col, Lo: lo, Hi: hi}
}

// tightest picks the greatest (sign > 0) or least (sign < 0) of bounds. A
// bound that does not compare with the one held is passed over, as a
// filter above the scan applies every bound anyway.
func tightest(bounds []*record.Value, sign int) *record.Value {
	var best *record.Value
	for _, b := range bounds {
		if best == nil {
			best = b
		} else if c, err := best.Compare(*b); err == nil && c*sign < 0 {
			best = b
		}
	}
	return best
}

// Schema exposes the projected table columns under the scan's alias.
func (s *TableScan) Schema() Schema {
	cols := s.Table.Schema().Columns
	idx := s.Cols
	if idx == nil {
		idx = record.AllColumns(len(cols))
	}
	out := make(Schema, len(idx))
	for i, ci := range idx {
		c := cols[ci]
		out[i] = Col{Table: s.Alias, Name: c.Name, Type: c.Type}
	}
	return out
}

// Open starts (or restarts) the verified scan.
func (s *TableScan) Open() error {
	if s.sc != nil {
		s.sc.Close()
		s.sc = nil
	}
	var err error
	if s.Col < 0 {
		// On a sharded table the storage layer stitches the per-shard
		// sub-scans in key order.
		s.sc, err = s.Table.SeqScanAt(s.exec.Snapshot())
	} else {
		s.sc, err = s.Table.RangeScanAt(s.Col, tightest(s.Lo, +1), tightest(s.Hi, -1), s.exec.Snapshot())
	}
	return err
}

// Close releases the scan (and its shared table lock).
func (s *TableScan) Close() error {
	if s.sc != nil {
		s.visited = s.sc.Visited()
		s.sc.Close()
		s.sc = nil
	}
	return nil
}

// Visited reports chain records read, including verification boundaries.
func (s *TableScan) Visited() int { return s.visited }

// NextBatch pulls a verified batch straight from the storage iterator,
// which runs the per-row chain checks as it fills and builds the
// projection's columns only.
func (s *TableScan) NextBatch(dst *RowBatch) (int, error) {
	if s.sc == nil {
		return 0, fmt.Errorf("engine: scan of %q not open", s.Table.Name())
	}
	if err := s.exec.Err(); err != nil {
		return 0, err
	}
	dst.Cols = s.Cols
	n, err := s.sc.NextBatch(dst)
	if err != nil || n == 0 {
		s.visited = s.sc.Visited()
	}
	return n, err
}

// Filter drops rows failing the predicate.
type Filter struct {
	Child Operator
	Pred  *Compiled

	sel []int // selection scratch, reused across batches
}

// Schema returns the child schema.
func (f *Filter) Schema() Schema { return f.Child.Schema() }

// Open opens the child.
func (f *Filter) Open() error { return f.Child.Open() }

// Close closes the child.
func (f *Filter) Close() error { return f.Child.Close() }

// NextBatch fills dst from the child and marks failing rows dead through
// the selection vector instead of compacting, so stacked filters touch each
// row's memory once. A return of 0 means the input is exhausted — batches
// whose rows all fail are retried internally, never surfaced.
func (f *Filter) NextBatch(dst *RowBatch) (int, error) {
	for {
		n, err := f.Child.NextBatch(dst)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		if dst.Sel != nil {
			// Compose with the upstream selection in place; writes trail
			// reads, so compacting into the same slice is safe.
			keep := dst.Sel[:0]
			for _, idx := range dst.Sel {
				pass, err := f.Pred.EvalBool(dst.Rows[idx])
				if err != nil {
					return 0, err
				}
				if pass {
					keep = append(keep, idx)
				}
			}
			dst.Sel = keep
		} else {
			if cap(f.sel) < dst.N {
				f.sel = make([]int, 0, len(dst.Rows))
			}
			sel := f.sel[:0]
			for i := 0; i < dst.N; i++ {
				pass, err := f.Pred.EvalBool(dst.Rows[i])
				if err != nil {
					return 0, err
				}
				if pass {
					sel = append(sel, i)
				}
			}
			f.sel = sel
			dst.Sel = sel
		}
		if live := dst.Live(); live > 0 {
			return live, nil
		}
	}
}

// Project computes output expressions per row.
type Project struct {
	Child Operator
	Exprs []*Compiled
	Names []string
	// Titles, when set, names the columns whose entry is non-nil by that
	// entry's String() at each Schema call instead of by Names: an
	// unnamed computed select item is headed by its source form, which
	// quotes literals a cached plan is rebound to between executions.
	Titles []fmt.Stringer

	in *RowBatch // input scratch, reused across batches
}

// Schema derives from the compiled expressions.
func (p *Project) Schema() Schema {
	out := make(Schema, len(p.Exprs))
	for i, e := range p.Exprs {
		name := p.Names[i]
		if p.Titles != nil && p.Titles[i] != nil {
			name = p.Titles[i].String()
		}
		out[i] = Col{Name: name, Type: e.Type()}
	}
	return out
}

// Open opens the child.
func (p *Project) Open() error { return p.Child.Open() }

// Close closes the child.
func (p *Project) Close() error { return p.Child.Close() }

// NextBatch projects a child batch into fresh output tuples. Dead input
// rows are skipped, so the output batch is dense (no selection).
func (p *Project) NextBatch(dst *RowBatch) (int, error) {
	if p.in == nil || p.in.Cap() != dst.Cap() {
		p.in = NewRowBatch(dst.Cap())
	}
	n, err := p.Child.NextBatch(p.in)
	if err != nil {
		return 0, err
	}
	dst.Reset()
	if n == 0 {
		return 0, nil
	}
	for i, live := 0, p.in.Live(); i < live; i++ {
		t := p.in.Row(i)
		out := make(record.Tuple, len(p.Exprs))
		for k, e := range p.Exprs {
			if out[k], err = e.Eval(t); err != nil {
				return 0, err
			}
		}
		dst.Rows[dst.N] = out
		dst.N++
	}
	return dst.N, nil
}

// Limit stops after N rows.
type Limit struct {
	Child Operator
	N     int
	seen  int
}

// Schema returns the child schema.
func (l *Limit) Schema() Schema { return l.Child.Schema() }

// Open opens the child and resets the counter.
func (l *Limit) Open() error {
	l.seen = 0
	return l.Child.Open()
}

// Close closes the child.
func (l *Limit) Close() error { return l.Child.Close() }

// NextBatch truncates the child's batch to the rows still allowed: a
// shrunk selection (or N) drops the overflow without copying. Hitting the
// limit leaves the child mid-stream — Close abandons it early, which is why
// a scan holds no shard latch between fills.
func (l *Limit) NextBatch(dst *RowBatch) (int, error) {
	if l.seen >= l.N {
		return 0, nil
	}
	n, err := l.Child.NextBatch(dst)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	if remain := l.N - l.seen; n > remain {
		if dst.Sel != nil {
			dst.Sel = dst.Sel[:remain]
		} else {
			dst.N = remain
		}
		n = remain
	}
	l.seen += n
	return n, nil
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr *Compiled
	Desc bool
}

// Sort materialises the child and emits rows in key order. Its buffer
// stays in the enclave's accounted memory: §5.4's spill of operator state
// to the verifiable storage is not implemented, so a sort past the memory
// budget fails with govern.ErrResourceExhausted.
type Sort struct {
	Child Operator
	Keys  []SortKey

	exec *Exec // statement controls; see SetExec
	rows []record.Tuple
	pos  int
}

// Schema returns the child schema.
func (s *Sort) Schema() Schema { return s.Child.Schema() }

// Open drains and sorts the child.
func (s *Sort) Open() error {
	s.rows, s.pos = nil, 0
	rows, err := Drain(s.Child, s.exec)
	if err != nil {
		return err
	}
	keys := make([][]record.Value, len(rows))
	for i, r := range rows {
		keys[i] = make([]record.Value, len(s.Keys))
		for j, k := range s.Keys {
			v, err := k.Expr.Eval(r)
			if err != nil {
				return err
			}
			keys[i][j] = v
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		for j, k := range s.Keys {
			c, err := keys[idx[a]][j].Compare(keys[idx[b]][j])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.rows = make([]record.Tuple, len(rows))
	for i, j := range idx {
		s.rows[i] = rows[j]
	}
	return nil
}

// NextBatch emits the next run of sorted rows.
func (s *Sort) NextBatch(dst *RowBatch) (int, error) {
	return emitRows(s.rows, &s.pos, dst)
}

// Close releases the materialised rows.
func (s *Sort) Close() error {
	s.rows = nil
	return nil
}

// Materialize drains its child once and replays the buffered rows on every
// subsequent Open — the materialisation point §6.3's NestedLoopJoin plan
// puts on the inner loop so the inner table's verified scan runs once, not
// once per outer row. The buffer conceptually lives in the verifiable
// storage when it outgrows the EPC (§5.4).
type Materialize struct {
	Child Operator

	exec   *Exec // statement controls; see SetExec
	rows   []record.Tuple
	filled bool
	pos    int
}

// Schema returns the child schema.
func (m *Materialize) Schema() Schema { return m.Child.Schema() }

// Open fills the buffer on first use and rewinds on every use.
func (m *Materialize) Open() error {
	if !m.filled {
		rows, err := Drain(m.Child, m.exec)
		if err != nil {
			return err
		}
		m.rows = rows
		m.filled = true
	}
	m.pos = 0
	return nil
}

// NextBatch replays the next run of buffered rows.
func (m *Materialize) NextBatch(dst *RowBatch) (int, error) {
	return emitRows(m.rows, &m.pos, dst)
}

// Close keeps the buffer for re-opens; the operator is per-query.
func (m *Materialize) Close() error { return nil }

// Values is a constant-rows operator (tests and VALUES-style plumbing).
type Values struct {
	Cols Schema
	Rows []record.Tuple
	pos  int
}

// Schema returns the declared columns.
func (v *Values) Schema() Schema { return v.Cols }

// Open resets the cursor.
func (v *Values) Open() error { v.pos = 0; return nil }

// NextBatch emits the next run of constant rows.
func (v *Values) NextBatch(dst *RowBatch) (int, error) {
	return emitRows(v.Rows, &v.pos, dst)
}

// Close is a no-op.
func (v *Values) Close() error { return nil }
