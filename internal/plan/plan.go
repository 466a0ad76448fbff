// Package plan is VeriDB's query compiler: it turns parsed SELECT
// statements into trees of engine operators whose leaves are the verified
// access methods. Compilation and optimisation run inside the (simulated)
// enclave, because verifying plan/query equivalence after the fact is
// NP-hard (paper §3.3 "Query compiler").
//
// The optimisations implemented are the ones the paper's evaluation
// exercises: predicate pushdown into chain range scans, join algorithm
// selection (index-nested-loop against a chained column, sort-merge, hash,
// or plain nested loop — §6.3 runs Q19 under both MergeJoin and
// NestedLoopJoin plans), and aggregate planning for the SPJA queries.
package plan

import (
	"fmt"
	"strings"

	"veridb/internal/engine"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/storage"
)

// JoinStrategy forces a join algorithm; JoinAuto picks per join.
type JoinStrategy int

const (
	// JoinAuto selects index-nested-loop when the inner join column has a
	// chain, otherwise hash join.
	JoinAuto JoinStrategy = iota
	// JoinIndex forces index-nested-loop joins.
	JoinIndex
	// JoinMerge forces sort-merge joins.
	JoinMerge
	// JoinHash forces hash joins.
	JoinHash
	// JoinNested forces naive nested-loop joins (the Q19 comparison plan).
	JoinNested
)

// Options tune planning.
type Options struct {
	Join JoinStrategy
}

// binding is one FROM/JOIN table with its alias, and the columns of it
// the statement reads (see neededCols).
type binding struct {
	alias string
	table storage.Engine
	cols  []int
}

// PlanSelect compiles a SELECT over st's tables into an operator tree. The
// planner sees only the Engine seam, never the concrete sharded table.
func PlanSelect(st *storage.Store, sel *sql.Select, opt Options) (engine.Operator, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("plan: SELECT without FROM")
	}
	var binds []binding
	seen := map[string]bool{}
	addBind := func(ref sql.TableRef) error {
		t, err := st.Table(ref.Table)
		if err != nil {
			return err
		}
		key := strings.ToLower(ref.Alias)
		if seen[key] {
			return fmt.Errorf("plan: duplicate table alias %q", ref.Alias)
		}
		seen[key] = true
		binds = append(binds, binding{alias: ref.Alias, table: t})
		return nil
	}
	for _, ref := range sel.From {
		if err := addBind(ref); err != nil {
			return nil, err
		}
	}
	conjuncts := splitAnd(sel.Where)
	for _, j := range sel.Joins {
		if err := addBind(j.Ref); err != nil {
			return nil, err
		}
		conjuncts = append(conjuncts, splitAnd(j.On)...)
	}
	// Qualify unqualified column references: join detection and pushdown
	// reason about which table an expression touches, so every ref that
	// names a column of exactly one bound table gets that table's alias;
	// a name owned by several tables is an error, as in standard SQL.
	for _, c := range conjuncts {
		if err := qualifyRefs(c, binds); err != nil {
			return nil, err
		}
	}
	for i, cols := range neededCols(sel, binds) {
		binds[i].cols = cols
	}

	// Build one access path per binding with its single-table predicates
	// pushed down, then join left-deep in FROM order.
	used := make([]bool, len(conjuncts))
	op, err := accessPath(binds[0], conjuncts, used)
	if err != nil {
		return nil, err
	}
	joined := map[string]bool{strings.ToLower(binds[0].alias): true}
	for _, b := range binds[1:] {
		op, err = planJoin(op, b, joined, conjuncts, used, opt)
		if err != nil {
			return nil, err
		}
		joined[strings.ToLower(b.alias)] = true
	}
	// Residual conjuncts (multi-table predicates not absorbed by joins).
	op, err = applyResidual(op, conjuncts, used)
	if err != nil {
		return nil, err
	}
	return finishSelect(op, sel)
}

// qualifyRefs fills in the table alias of unqualified column references
// that resolve to exactly one binding. A name owned by several bound
// tables is ambiguous and rejected; unknown names are left for expression
// compilation to report.
func qualifyRefs(e sql.Expr, binds []binding) (err error) {
	contains(e, func(e sql.Expr) bool {
		x, ok := e.(*sql.ColumnRef)
		if !ok || x.Table != "" {
			return false
		}
		owner := ""
		for _, b := range binds {
			if b.table.Schema().ColIndex(x.Column) >= 0 {
				if owner != "" {
					err = fmt.Errorf("plan: column %q is ambiguous (in %q and %q)", x.Column, owner, b.alias)
					return true
				}
				owner = b.alias
			}
		}
		if owner != "" {
			x.Table = owner
		}
		return false
	})
	return err
}

// neededCols returns, per binding, the columns of its table the statement
// reads, in table order: those its select list, WHERE, JOIN … ON, GROUP BY,
// HAVING and ORDER BY name, and all of them for a *. A qualified name marks
// its column in the binding of that alias; an unqualified one in every
// binding that has the column, so a name owned by two tables stays
// ambiguous — with the same error — above a projected scan.
func neededCols(sel *sql.Select, binds []binding) [][]int {
	need := make([][]bool, len(binds))
	for i, b := range binds {
		need[i] = make([]bool, b.table.Schema().Len())
	}
	mark := func(e sql.Expr) {
		contains(e, func(e sql.Expr) bool {
			x, ok := e.(*sql.ColumnRef)
			if !ok {
				return false
			}
			for i, b := range binds {
				if x.Table != "" && !strings.EqualFold(x.Table, b.alias) {
					continue
				}
				// Compiled expressions resolve names case-blind.
				for ci, c := range b.table.Schema().Columns {
					if strings.EqualFold(c.Name, x.Column) {
						need[i][ci] = true
					}
				}
			}
			return false
		})
	}
	for _, item := range sel.Items {
		if item.Star {
			for i := range need {
				for ci := range need[i] {
					need[i][ci] = true
				}
			}
		}
		mark(item.Expr)
	}
	mark(sel.Where)
	for _, j := range sel.Joins {
		mark(j.On)
	}
	for _, g := range sel.GroupBy {
		mark(g)
	}
	mark(sel.Having)
	for _, o := range sel.OrderBy {
		mark(o.Expr)
	}
	out := make([][]int, len(binds))
	for i, n := range need {
		out[i] = []int{} // a scan of no columns still emits its rows
		for ci, ok := range n {
			if ok {
				out[i] = append(out[i], ci)
			}
		}
	}
	return out
}

// splitAnd flattens a conjunction.
func splitAnd(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sql.Expr{e}
}

// exprAliases collects the table aliases an expression references; refs
// with empty table qualifiers yield "".
func exprAliases(e sql.Expr, out map[string]bool) {
	contains(e, func(e sql.Expr) bool {
		if x, ok := e.(*sql.ColumnRef); ok {
			out[strings.ToLower(x.Table)] = true
		}
		return false
	})
}

// referencesOnly reports whether e touches only the given alias (or is
// unqualified, which the caller resolves by schema).
func referencesOnly(e sql.Expr, alias string) bool {
	refs := map[string]bool{}
	exprAliases(e, refs)
	for a := range refs {
		if a != "" && a != strings.ToLower(alias) {
			return false
		}
	}
	return true
}

// rangeBound is one extracted comparison against a literal. lo and hi point
// at the literal nodes' values, never at copies: the scan reads them when it
// opens, which is what lets a cached plan follow its statement's rebinding.
type rangeBound struct {
	col string
	lo  *record.Value
	hi  *record.Value
}

// extractBound recognises col ⊙ literal (possibly reversed) and BETWEEN.
func extractBound(e sql.Expr) *rangeBound {
	switch x := e.(type) {
	case *sql.BinaryExpr:
		col, okL := x.L.(*sql.ColumnRef)
		lit, okR := x.R.(*sql.Literal)
		op := x.Op
		if !okL || !okR {
			// literal ⊙ col: flip.
			lit2, okL2 := x.L.(*sql.Literal)
			col2, okR2 := x.R.(*sql.ColumnRef)
			if !okL2 || !okR2 {
				return nil
			}
			col, lit = col2, lit2
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		if lit.Val.Null {
			return nil
		}
		switch op {
		case "=":
			return &rangeBound{col: col.Column, lo: &lit.Val, hi: &lit.Val}
		case "<", "<=":
			return &rangeBound{col: col.Column, hi: &lit.Val}
		case ">", ">=":
			return &rangeBound{col: col.Column, lo: &lit.Val}
		}
	case *sql.BetweenExpr:
		if x.Negated {
			return nil
		}
		col, ok := x.E.(*sql.ColumnRef)
		if !ok {
			return nil
		}
		lo, okLo := x.Lo.(*sql.Literal)
		hi, okHi := x.Hi.(*sql.Literal)
		if !okLo || !okHi || lo.Val.Null || hi.Val.Null {
			return nil
		}
		return &rangeBound{col: col.Column, lo: &lo.Val, hi: &hi.Val}
	}
	return nil
}

// accessPath builds the scan for one table: a verified range scan on the
// most constrained chained column, with every pushed-down predicate kept
// as a filter above it (bounds are a performance device; the filter is the
// semantic truth, so strict/non-strict handling stays trivial). Which
// column that is depends on how many bounds of which kind each one has —
// the statement's shape — and never on a literal's value: every bound on
// the chosen column goes to the scan, which takes the tightest when it
// opens.
func accessPath(b binding, conjuncts []sql.Expr, used []bool) (engine.Operator, error) {
	scan := engine.NewTableScan(b.table, b.alias)
	scan.Cols = b.cols
	schema := scan.Schema()

	type colBounds struct {
		lo, hi []*record.Value
		eq     bool
	}
	bounds := map[int]*colBounds{} // column index -> bounds
	var pushed []*engine.Compiled
	for i, c := range conjuncts {
		if used[i] || !referencesOnly(c, b.alias) {
			continue
		}
		// Confirm the expression actually compiles against this table
		// alone (unqualified refs may belong to another table).
		pred, err := engine.Compile(c, schema)
		if err != nil {
			continue
		}
		pushed = append(pushed, pred)
		used[i] = true
		if rb := extractBound(c); rb != nil {
			ci := b.table.Schema().ColIndex(rb.col)
			if ci < 0 || b.table.ChainFor(ci) < 0 {
				continue
			}
			cb := bounds[ci]
			if cb == nil {
				cb = &colBounds{}
				bounds[ci] = cb
			}
			if rb.lo != nil {
				cb.lo = append(cb.lo, rb.lo)
			}
			if rb.hi != nil {
				cb.hi = append(cb.hi, rb.hi)
			}
			if rb.lo != nil && rb.hi != nil {
				cb.eq = true
			}
		}
	}
	// Choose the best bounded chain: equality beats half-open ranges.
	bestCol, bestScore := -1, 0
	for ci, cb := range bounds {
		score := 0
		if cb.lo != nil {
			score++
		}
		if cb.hi != nil {
			score++
		}
		if cb.eq {
			score++
		}
		if cb.eq && ci == b.table.PrimaryKeyColumn() && b.table.ShardCount() > 1 {
			// Shard-aware costing: a primary-key equality routes to a
			// single shard, while an equally tight secondary-chain scan
			// must visit every shard for its per-shard absence proofs.
			score++
		}
		if score > bestScore {
			bestScore, bestCol = score, ci
		}
	}
	var op engine.Operator = scan
	if bestCol >= 0 {
		cb := bounds[bestCol]
		rs := engine.NewRangeScan(b.table, b.alias, bestCol, cb.lo, cb.hi)
		rs.Cols = b.cols
		op = rs
	}
	for _, pred := range pushed {
		op = &engine.Filter{Child: op, Pred: pred}
	}
	return op, nil
}

// equiJoinConjunct finds a conjunct of the form left.x = right.y linking
// the joined aliases to the new binding.
func equiJoinConjunct(conjuncts []sql.Expr, used []bool, joined map[string]bool, b binding) (idx int, leftKey, rightKey *sql.ColumnRef) {
	for i, c := range conjuncts {
		if used[i] {
			continue
		}
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		l, lok := be.L.(*sql.ColumnRef)
		r, rok := be.R.(*sql.ColumnRef)
		if !lok || !rok {
			continue
		}
		la, ra := strings.ToLower(l.Table), strings.ToLower(r.Table)
		ba := strings.ToLower(b.alias)
		switch {
		case joined[la] && ra == ba:
			return i, l, r
		case joined[ra] && la == ba:
			return i, r, l
		}
	}
	return -1, nil, nil
}

// planJoin attaches binding b to the current plan.
func planJoin(left engine.Operator, b binding, joined map[string]bool, conjuncts []sql.Expr, used []bool, opt Options) (engine.Operator, error) {
	ji, lk, rk := equiJoinConjunct(conjuncts, used, joined, b)
	strategy := opt.Join
	if ji < 0 && strategy != JoinNested {
		// No equi-join condition: only a nested loop applies.
		strategy = JoinNested
	}
	if strategy == JoinAuto {
		ci := b.table.Schema().ColIndex(rk.Column)
		if ci >= 0 && b.table.ChainFor(ci) >= 0 {
			strategy = JoinIndex
		} else {
			strategy = JoinHash
		}
	}
	switch strategy {
	case JoinIndex:
		ci := b.table.Schema().ColIndex(rk.Column)
		if ci < 0 {
			return nil, fmt.Errorf("plan: join column %q not in table %q", rk.Column, b.table.Name())
		}
		if b.table.ChainFor(ci) < 0 {
			// Fall back to hash when the inner column has no chain.
			return planHashJoin(left, b, lk, rk, conjuncts, used)
		}
		outerKey, err := engine.Compile(lk, left.Schema())
		if err != nil {
			return nil, err
		}
		used[ji] = true
		j := &engine.IndexJoin{
			Outer:      left,
			InnerTable: b.table,
			InnerAlias: b.alias,
			InnerCol:   ci,
			OuterKey:   outerKey,
		}
		return withJoinResidual(j, b, conjuncts, used)
	case JoinMerge:
		inner, err := accessPath(b, conjuncts, used)
		if err != nil {
			return nil, err
		}
		leftKey, err := engine.Compile(lk, left.Schema())
		if err != nil {
			return nil, err
		}
		rightKey, err := engine.Compile(rk, inner.Schema())
		if err != nil {
			return nil, err
		}
		used[ji] = true
		j := &engine.MergeJoin{
			Left:     &engine.Sort{Child: left, Keys: []engine.SortKey{{Expr: leftKey}}},
			Right:    &engine.Sort{Child: inner, Keys: []engine.SortKey{{Expr: rightKey}}},
			LeftKey:  leftKey,
			RightKey: rightKey,
		}
		return withJoinResidual(j, b, conjuncts, used)
	case JoinHash:
		used[ji] = true
		return planHashJoin(left, b, lk, rk, conjuncts, used)
	case JoinNested:
		inner, err := accessPath(b, conjuncts, used)
		if err != nil {
			return nil, err
		}
		// Materialise the inner side so its verified scan runs once (§6.3:
		// the Q19 plan "uses NestedLoopJoin and materialize the Select
		// result on inner loop").
		j := &engine.NestedLoopJoin{Outer: left, Inner: &engine.Materialize{Child: inner}}
		if ji >= 0 {
			// Keep the equi-condition as part of the nested loop's
			// predicate (the naive plan the paper compares against).
			pred, err := engine.Compile(conjuncts[ji], j.Schema())
			if err != nil {
				return nil, err
			}
			j.On = pred
			used[ji] = true
		}
		return withJoinResidual(j, b, conjuncts, used)
	default:
		return nil, fmt.Errorf("plan: unknown join strategy %d", opt.Join)
	}
}

func planHashJoin(left engine.Operator, b binding, lk, rk *sql.ColumnRef, conjuncts []sql.Expr, used []bool) (engine.Operator, error) {
	inner, err := accessPath(b, conjuncts, used)
	if err != nil {
		return nil, err
	}
	leftKey, err := engine.Compile(lk, left.Schema())
	if err != nil {
		return nil, err
	}
	rightKey, err := engine.Compile(rk, inner.Schema())
	if err != nil {
		return nil, err
	}
	j := &engine.HashJoin{Left: left, Right: inner, LeftKey: leftKey, RightKey: rightKey}
	return withJoinResidual(j, b, conjuncts, used)
}

// withJoinResidual attaches any remaining conjuncts that are now fully
// resolvable against the join's combined schema.
func withJoinResidual(j engine.Operator, b binding, conjuncts []sql.Expr, used []bool) (engine.Operator, error) {
	schema := j.Schema()
	op := j
	for i, c := range conjuncts {
		if used[i] {
			continue
		}
		pred, err := engine.Compile(c, schema)
		if err != nil {
			continue // belongs to a later join
		}
		used[i] = true
		op = &engine.Filter{Child: op, Pred: pred}
	}
	return op, nil
}

func applyResidual(op engine.Operator, conjuncts []sql.Expr, used []bool) (engine.Operator, error) {
	for i, c := range conjuncts {
		if used[i] {
			continue
		}
		pred, err := engine.Compile(c, op.Schema())
		if err != nil {
			return nil, fmt.Errorf("plan: predicate %s: %w", c, err)
		}
		used[i] = true
		op = &engine.Filter{Child: op, Pred: pred}
	}
	return op, nil
}
