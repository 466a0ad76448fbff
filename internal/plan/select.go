package plan

import (
	"fmt"
	"strings"

	"veridb/internal/engine"
	"veridb/internal/sql"
)

// contains reports whether pred holds for e or for an expression below it,
// visiting in text order until it does.
func contains(e sql.Expr, pred func(sql.Expr) bool) bool {
	if e == nil {
		return false
	}
	if pred(e) {
		return true
	}
	switch x := e.(type) {
	case *sql.BinaryExpr:
		return contains(x.L, pred) || contains(x.R, pred)
	case *sql.UnaryExpr:
		return contains(x.E, pred)
	case *sql.FuncCall:
		return contains(x.Arg, pred)
	case *sql.BetweenExpr:
		return contains(x.E, pred) || contains(x.Lo, pred) || contains(x.Hi, pred)
	case *sql.InExpr:
		for _, i := range x.List {
			if contains(i, pred) {
				return true
			}
		}
		return contains(x.E, pred)
	case *sql.IsNullExpr:
		return contains(x.E, pred)
	}
	return false
}

// hasAggregate reports whether the expression tree contains an aggregate.
func hasAggregate(e sql.Expr) bool {
	return contains(e, func(e sql.Expr) bool { _, ok := e.(*sql.FuncCall); return ok })
}

// hasLiteral reports whether the expression tree contains a literal.
func hasLiteral(e sql.Expr) bool {
	return contains(e, func(e sql.Expr) bool { _, ok := e.(*sql.Literal); return ok })
}

// collectAggs gathers distinct aggregate calls (by source form).
func collectAggs(e sql.Expr, into map[string]*sql.FuncCall, order *[]string) {
	switch x := e.(type) {
	case *sql.FuncCall:
		key := x.String()
		if _, ok := into[key]; !ok {
			into[key] = x
			*order = append(*order, key)
		}
	case *sql.BinaryExpr:
		collectAggs(x.L, into, order)
		collectAggs(x.R, into, order)
	case *sql.UnaryExpr:
		collectAggs(x.E, into, order)
	case *sql.BetweenExpr:
		collectAggs(x.E, into, order)
		collectAggs(x.Lo, into, order)
		collectAggs(x.Hi, into, order)
	case *sql.InExpr:
		collectAggs(x.E, into, order)
		for _, i := range x.List {
			collectAggs(i, into, order)
		}
	case *sql.IsNullExpr:
		collectAggs(x.E, into, order)
	}
}

// rewriteForAgg replaces group-by expressions and aggregate calls with
// references to the aggregate operator's output columns. Matching is by
// source form, the standard trick for deciding "appears in GROUP BY".
func rewriteForAgg(e sql.Expr, names map[string]string) (sql.Expr, error) {
	if e == nil {
		return nil, nil
	}
	if name, ok := names[e.String()]; ok {
		return &sql.ColumnRef{Column: name}, nil
	}
	switch x := e.(type) {
	case *sql.ColumnRef:
		return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", x)
	case *sql.Literal:
		return x, nil
	case *sql.FuncCall:
		// Every aggregate was registered; reaching here means a nested or
		// unknown call.
		return nil, fmt.Errorf("plan: unsupported aggregate use %s", x)
	case *sql.BinaryExpr:
		l, err := rewriteForAgg(x.L, names)
		if err != nil {
			return nil, err
		}
		r, err := rewriteForAgg(x.R, names)
		if err != nil {
			return nil, err
		}
		return &sql.BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		inner, err := rewriteForAgg(x.E, names)
		if err != nil {
			return nil, err
		}
		return &sql.UnaryExpr{Op: x.Op, E: inner}, nil
	case *sql.BetweenExpr:
		ne, err := rewriteForAgg(x.E, names)
		if err != nil {
			return nil, err
		}
		lo, err := rewriteForAgg(x.Lo, names)
		if err != nil {
			return nil, err
		}
		hi, err := rewriteForAgg(x.Hi, names)
		if err != nil {
			return nil, err
		}
		return &sql.BetweenExpr{E: ne, Lo: lo, Hi: hi, Negated: x.Negated}, nil
	case *sql.InExpr:
		ne, err := rewriteForAgg(x.E, names)
		if err != nil {
			return nil, err
		}
		list := make([]sql.Expr, len(x.List))
		for i, item := range x.List {
			if list[i], err = rewriteForAgg(item, names); err != nil {
				return nil, err
			}
		}
		return &sql.InExpr{E: ne, List: list, Negated: x.Negated}, nil
	case *sql.IsNullExpr:
		ne, err := rewriteForAgg(x.E, names)
		if err != nil {
			return nil, err
		}
		return &sql.IsNullExpr{E: ne, Negated: x.Negated}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T under aggregation", e)
	}
}

// Rebindable reports whether a plan of sel serves every statement of sel's
// shape, whatever its literals (see Cache). The one thing PlanSelect
// decides from a literal's value is finishSelect's source-form matching —
// an expression against a GROUP BY key, one aggregate call against another
// — so a statement whose GROUP BY keys quote a literal, or in which two
// aggregate calls quoting literals were merged, has a plan for its own
// values only.
func Rebindable(sel *sql.Select) bool {
	for _, g := range sel.GroupBy {
		if hasLiteral(g) {
			return false
		}
	}
	seen := map[string]bool{}
	merged := false
	calls := func(e sql.Expr) bool {
		if fc, ok := e.(*sql.FuncCall); ok && hasLiteral(fc) {
			merged = merged || seen[fc.String()]
			seen[fc.String()] = true
		}
		return false
	}
	for _, item := range sel.Items {
		contains(item.Expr, calls)
	}
	contains(sel.Having, calls)
	for _, o := range sel.OrderBy {
		contains(o.Expr, calls)
	}
	return !merged
}

// finishSelect layers aggregation, HAVING, projection, ORDER BY and LIMIT
// over the joined/filtered input.
func finishSelect(op engine.Operator, sel *sql.Select) (engine.Operator, error) {
	needsAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, item := range sel.Items {
		if !item.Star && hasAggregate(item.Expr) {
			needsAgg = true
		}
	}
	for _, o := range sel.OrderBy {
		if hasAggregate(o.Expr) {
			needsAgg = true
		}
	}

	inSchema := op.Schema()
	var projExprs []sql.Expr
	var projNames []string
	var projTitles []fmt.Stringer
	orderExprs := make([]sql.Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		orderExprs[i] = o.Expr
	}
	having := sel.Having

	if needsAgg {
		// Build the aggregate operator: group columns then aggregates.
		names := map[string]string{} // source form -> agg output column
		var groupCompiled []*engine.Compiled
		var groupNames []string
		for i, g := range sel.GroupBy {
			c, err := engine.Compile(g, inSchema)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("group%d", i)
			if ref, ok := g.(*sql.ColumnRef); ok {
				name = ref.Column
			}
			groupCompiled = append(groupCompiled, c)
			groupNames = append(groupNames, name)
			names[g.String()] = name
		}
		aggCalls := map[string]*sql.FuncCall{}
		var aggOrder []string
		for _, item := range sel.Items {
			if !item.Star {
				collectAggs(item.Expr, aggCalls, &aggOrder)
			}
		}
		if having != nil {
			collectAggs(having, aggCalls, &aggOrder)
		}
		for _, o := range sel.OrderBy {
			collectAggs(o.Expr, aggCalls, &aggOrder)
		}
		var specs []engine.AggSpec
		for i, key := range aggOrder {
			fc := aggCalls[key]
			fn, err := engine.AggFuncByName(fc.Name)
			if err != nil {
				return nil, err
			}
			spec := engine.AggSpec{Func: fn, Name: fmt.Sprintf("agg%d", i)}
			if !fc.Star {
				arg, err := engine.Compile(fc.Arg, inSchema)
				if err != nil {
					return nil, err
				}
				spec.Arg = arg
			}
			specs = append(specs, spec)
			names[key] = spec.Name
		}
		op = &engine.HashAggregate{
			Child:   op,
			GroupBy: groupCompiled,
			Names:   groupNames,
			Aggs:    specs,
		}
		// Rewrite downstream expressions against the aggregate schema.
		if having != nil {
			var err error
			if having, err = rewriteForAgg(having, names); err != nil {
				return nil, err
			}
		}
		for i := range orderExprs {
			var err error
			if orderExprs[i], err = rewriteForAgg(orderExprs[i], names); err != nil {
				return nil, err
			}
		}
		for _, item := range sel.Items {
			if item.Star {
				return nil, fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
			}
			re, err := rewriteForAgg(item.Expr, names)
			if err != nil {
				return nil, err
			}
			projExprs = append(projExprs, re)
			projNames, projTitles = appendItemName(projNames, projTitles, item)
		}
	} else {
		for _, item := range sel.Items {
			if item.Star {
				for _, c := range op.Schema() {
					projExprs = append(projExprs, &sql.ColumnRef{Table: c.Table, Column: c.Name})
					projNames, projTitles = append(projNames, c.Name), append(projTitles, nil)
				}
				continue
			}
			projExprs = append(projExprs, item.Expr)
			projNames, projTitles = appendItemName(projNames, projTitles, item)
		}
	}

	if having != nil {
		pred, err := engine.Compile(having, op.Schema())
		if err != nil {
			return nil, err
		}
		op = &engine.Filter{Child: op, Pred: pred}
	}
	// ORDER BY before projection (it may reference non-projected columns);
	// fall back to after-projection aliases if that fails.
	var sortKeys []engine.SortKey
	sortAfterProject := false
	for i, oe := range orderExprs {
		c, err := engine.Compile(oe, op.Schema())
		if err != nil {
			sortAfterProject = true
			break
		}
		sortKeys = append(sortKeys, engine.SortKey{Expr: c, Desc: sel.OrderBy[i].Desc})
	}
	if len(sel.OrderBy) > 0 && !sortAfterProject {
		op = &engine.Sort{Child: op, Keys: sortKeys}
	}
	// Projection, unless it is the identity (a lone SELECT * without
	// aggregation): then the input's rows, under the same column names,
	// are the result's, and copying each one would buy nothing.
	if needsAgg || len(sel.Items) != 1 || !sel.Items[0].Star {
		exprs := make([]*engine.Compiled, len(projExprs))
		for i, pe := range projExprs {
			c, err := engine.Compile(pe, op.Schema())
			if err != nil {
				return nil, err
			}
			exprs[i] = c
		}
		op = &engine.Project{Child: op, Exprs: exprs, Names: projNames, Titles: projTitles}
	}
	if sortAfterProject {
		keys := make([]engine.SortKey, len(orderExprs))
		for i, oe := range orderExprs {
			c, err := engine.Compile(oe, op.Schema())
			if err != nil {
				return nil, fmt.Errorf("plan: ORDER BY %s: %w", oe, err)
			}
			keys[i] = engine.SortKey{Expr: c, Desc: sel.OrderBy[i].Desc}
		}
		op = &engine.Sort{Child: op, Keys: keys}
	}
	if sel.Limit >= 0 {
		op = &engine.Limit{Child: op, N: sel.Limit}
	}
	return op, nil
}

// appendItemName derives the output column name for a select item: its
// alias, its column, or else its source form — which the projection
// renders from the live expression at each use (engine.Project.Titles).
func appendItemName(names []string, titles []fmt.Stringer, item sql.SelectItem) ([]string, []fmt.Stringer) {
	if item.Alias != "" {
		return append(names, item.Alias), append(titles, nil)
	}
	if ref, ok := item.Expr.(*sql.ColumnRef); ok {
		return append(names, ref.Column), append(titles, nil)
	}
	return append(names, ""), append(titles, item.Expr)
}

// Describe renders an operator tree for EXPLAIN-style output.
func Describe(op engine.Operator) string {
	var sb strings.Builder
	describe(op, 0, &sb)
	return sb.String()
}

func describe(op engine.Operator, depth int, sb *strings.Builder) {
	indent := strings.Repeat("  ", depth)
	switch x := op.(type) {
	case *engine.TableScan:
		if x.Col < 0 {
			fmt.Fprintf(sb, "%sSeqScan(%s as %s)\n", indent, x.Table.Name(), x.Alias)
		} else {
			fmt.Fprintf(sb, "%sRangeScan(%s as %s, col=%s)\n", indent, x.Table.Name(), x.Alias,
				x.Table.Schema().Columns[x.Col].Name)
		}
	case *engine.Filter:
		fmt.Fprintf(sb, "%sFilter(%s)\n", indent, x.Pred)
		describe(x.Child, depth+1, sb)
	case *engine.Project:
		names := make([]string, len(x.Names))
		for i, c := range x.Schema() {
			names[i] = c.Name
		}
		fmt.Fprintf(sb, "%sProject(%s)\n", indent, strings.Join(names, ", "))
		describe(x.Child, depth+1, sb)
	case *engine.Limit:
		fmt.Fprintf(sb, "%sLimit(%d)\n", indent, x.N)
		describe(x.Child, depth+1, sb)
	case *engine.Sort:
		fmt.Fprintf(sb, "%sSort\n", indent)
		describe(x.Child, depth+1, sb)
	case *engine.HashAggregate:
		fmt.Fprintf(sb, "%sHashAggregate(groups=%d, aggs=%d)\n", indent, len(x.GroupBy), len(x.Aggs))
		describe(x.Child, depth+1, sb)
	case *engine.IndexJoin:
		fmt.Fprintf(sb, "%sIndexJoin(inner=%s as %s, key=%s)\n", indent, x.InnerTable.Name(), x.InnerAlias, x.OuterKey)
		describe(x.Outer, depth+1, sb)
	case *engine.NestedLoopJoin:
		fmt.Fprintf(sb, "%sNestedLoopJoin\n", indent)
		describe(x.Outer, depth+1, sb)
		describe(x.Inner, depth+1, sb)
	case *engine.MergeJoin:
		fmt.Fprintf(sb, "%sMergeJoin\n", indent)
		describe(x.Left, depth+1, sb)
		describe(x.Right, depth+1, sb)
	case *engine.HashJoin:
		fmt.Fprintf(sb, "%sHashJoin\n", indent)
		describe(x.Left, depth+1, sb)
		describe(x.Right, depth+1, sb)
	case *engine.Values:
		fmt.Fprintf(sb, "%sValues(%d rows)\n", indent, len(x.Rows))
	default:
		fmt.Fprintf(sb, "%s%T\n", indent, op)
	}
}
