package sql

// Parameter binding and statement rendering for prepared statements, and
// the shape pass the plan cache keys statements on.
// BindParams deep-clones a PREPARE template with every ? placeholder
// replaced by its bound argument, so the original template survives for
// the next EXECUTE and concurrent bindings never share expression nodes.
// Render turns a bound mutating statement back into parseable SQL text —
// that text is what the WAL logs, so recovery replays a plain statement
// with no dependency on the session's prepared-statement registry.

import (
	"fmt"
	"strconv"
	"strings"

	"veridb/internal/record"
)

// BindParams returns a copy of the template with params[i] substituted
// for the placeholder of index i, and the literal nodes it substituted:
// node i of the copy holds params[i], and rewriting its Val rebinds the
// copy to another argument. The argument count must match exactly.
func BindParams(stmt Statement, params []record.Value) (Statement, []*Literal, error) {
	n := CountParams(stmt)
	if len(params) != n {
		return nil, nil, fmt.Errorf("sql: statement wants %d parameters, got %d", n, len(params))
	}
	lits := make([]*Literal, n)
	for i, v := range params {
		lits[i] = &Literal{Val: v}
	}
	bound, err := cloneStmt(stmt, lits)
	return bound, lits, err
}

// CountParams counts the ? placeholders in a statement.
func CountParams(stmt Statement) int {
	max := -1
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *Param:
			if x.Index > max {
				max = x.Index
			}
		case *BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *UnaryExpr:
			walk(x.E)
		case *FuncCall:
			walk(x.Arg)
		case *BetweenExpr:
			walk(x.E)
			walk(x.Lo)
			walk(x.Hi)
		case *InExpr:
			walk(x.E)
			for _, v := range x.List {
				walk(v)
			}
		case *IsNullExpr:
			walk(x.E)
		}
	}
	forEachExpr(stmt, walk)
	return max + 1
}

// forEachExpr visits every expression root of a statement.
func forEachExpr(stmt Statement, fn func(Expr)) {
	switch s := stmt.(type) {
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				fn(e)
			}
		}
	case *Update:
		for _, a := range s.Set {
			fn(a.Value)
		}
		fn(s.Where)
	case *Delete:
		fn(s.Where)
	case *Select:
		for _, it := range s.Items {
			fn(it.Expr)
		}
		for _, j := range s.Joins {
			fn(j.On)
		}
		fn(s.Where)
		for _, e := range s.GroupBy {
			fn(e)
		}
		fn(s.Having)
		for _, o := range s.OrderBy {
			fn(o.Expr)
		}
	}
}

// cloneStmt deep-copies a statement with params[i] in place of the
// placeholder of index i.
func cloneStmt(stmt Statement, params []*Literal) (Statement, error) {
	switch s := stmt.(type) {
	case *Insert:
		out := &Insert{Table: s.Table, Columns: append([]string(nil), s.Columns...)}
		for _, row := range s.Rows {
			nr := make([]Expr, len(row))
			for i, e := range row {
				var err error
				if nr[i], err = cloneExpr(e, params); err != nil {
					return nil, err
				}
			}
			out.Rows = append(out.Rows, nr)
		}
		return out, nil
	case *Update:
		out := &Update{Table: s.Table}
		for _, a := range s.Set {
			v, err := cloneExpr(a.Value, params)
			if err != nil {
				return nil, err
			}
			out.Set = append(out.Set, Assignment{Column: a.Column, Value: v})
		}
		var err error
		if out.Where, err = cloneExpr(s.Where, params); err != nil {
			return nil, err
		}
		return out, nil
	case *Delete:
		w, err := cloneExpr(s.Where, params)
		if err != nil {
			return nil, err
		}
		return &Delete{Table: s.Table, Where: w}, nil
	case *Select:
		out := &Select{
			From:  append([]TableRef(nil), s.From...),
			Limit: s.Limit,
		}
		for _, it := range s.Items {
			e, err := cloneExpr(it.Expr, params)
			if err != nil {
				return nil, err
			}
			out.Items = append(out.Items, SelectItem{Expr: e, Alias: it.Alias, Star: it.Star})
		}
		for _, j := range s.Joins {
			on, err := cloneExpr(j.On, params)
			if err != nil {
				return nil, err
			}
			out.Joins = append(out.Joins, JoinClause{Ref: j.Ref, On: on})
		}
		var err error
		if out.Where, err = cloneExpr(s.Where, params); err != nil {
			return nil, err
		}
		for _, e := range s.GroupBy {
			g, err := cloneExpr(e, params)
			if err != nil {
				return nil, err
			}
			out.GroupBy = append(out.GroupBy, g)
		}
		if out.Having, err = cloneExpr(s.Having, params); err != nil {
			return nil, err
		}
		for _, o := range s.OrderBy {
			e, err := cloneExpr(o.Expr, params)
			if err != nil {
				return nil, err
			}
			out.OrderBy = append(out.OrderBy, OrderItem{Expr: e, Desc: o.Desc})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("sql: cannot bind parameters into %T", stmt)
	}
}

func cloneExpr(e Expr, params []*Literal) (Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *Param:
		if x.Index < 0 || x.Index >= len(params) {
			return nil, fmt.Errorf("sql: placeholder %d out of range (%d bound)", x.Index+1, len(params))
		}
		return params[x.Index], nil
	case *ColumnRef:
		return &ColumnRef{Table: x.Table, Column: x.Column}, nil
	case *Literal:
		return &Literal{Val: x.Val}, nil
	case *BinaryExpr:
		l, err := cloneExpr(x.L, params)
		if err != nil {
			return nil, err
		}
		r, err := cloneExpr(x.R, params)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *UnaryExpr:
		c, err := cloneExpr(x.E, params)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: x.Op, E: c}, nil
	case *FuncCall:
		arg, err := cloneExpr(x.Arg, params)
		if err != nil {
			return nil, err
		}
		return &FuncCall{Name: x.Name, Arg: arg, Star: x.Star}, nil
	case *BetweenExpr:
		c, err := cloneExpr(x.E, params)
		if err != nil {
			return nil, err
		}
		lo, err := cloneExpr(x.Lo, params)
		if err != nil {
			return nil, err
		}
		hi, err := cloneExpr(x.Hi, params)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: c, Lo: lo, Hi: hi, Negated: x.Negated}, nil
	case *InExpr:
		c, err := cloneExpr(x.E, params)
		if err != nil {
			return nil, err
		}
		out := &InExpr{E: c, Negated: x.Negated}
		for _, v := range x.List {
			cv, err := cloneExpr(v, params)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, cv)
		}
		return out, nil
	case *IsNullExpr:
		c, err := cloneExpr(x.E, params)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{E: c, Negated: x.Negated}, nil
	default:
		return nil, fmt.Errorf("sql: cannot clone expression %T", e)
	}
}

// Render turns a bound DML statement back into SQL text that Parse
// accepts and that evaluates to the same values — the form the WAL logs
// for replay. Float literals render in non-exponent decimal (the lexer
// has no exponent support) and text literals double embedded quotes.
func Render(stmt Statement) (string, error) {
	var sb strings.Builder
	switch s := stmt.(type) {
	case *Insert:
		sb.WriteString("INSERT INTO ")
		sb.WriteString(s.Table)
		if len(s.Columns) > 0 {
			sb.WriteString(" (")
			sb.WriteString(strings.Join(s.Columns, ", "))
			sb.WriteString(")")
		}
		sb.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("(")
			for j, e := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				if err := renderExpr(&sb, e); err != nil {
					return "", err
				}
			}
			sb.WriteString(")")
		}
	case *Update:
		sb.WriteString("UPDATE ")
		sb.WriteString(s.Table)
		sb.WriteString(" SET ")
		for i, a := range s.Set {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.Column)
			sb.WriteString(" = ")
			if err := renderExpr(&sb, a.Value); err != nil {
				return "", err
			}
		}
		if s.Where != nil {
			sb.WriteString(" WHERE ")
			if err := renderExpr(&sb, s.Where); err != nil {
				return "", err
			}
		}
	case *Delete:
		sb.WriteString("DELETE FROM ")
		sb.WriteString(s.Table)
		if s.Where != nil {
			sb.WriteString(" WHERE ")
			if err := renderExpr(&sb, s.Where); err != nil {
				return "", err
			}
		}
	default:
		return "", fmt.Errorf("sql: cannot render %T", stmt)
	}
	return sb.String(), nil
}

func renderExpr(sb *strings.Builder, e Expr) error {
	switch x := e.(type) {
	case *Literal:
		sb.WriteString(renderLiteral(x.Val))
		return nil
	case *ColumnRef:
		sb.WriteString(x.String())
		return nil
	case *BinaryExpr:
		sb.WriteString("(")
		if err := renderExpr(sb, x.L); err != nil {
			return err
		}
		sb.WriteString(" " + x.Op + " ")
		if err := renderExpr(sb, x.R); err != nil {
			return err
		}
		sb.WriteString(")")
		return nil
	case *UnaryExpr:
		sb.WriteString("(" + x.Op + " ")
		if err := renderExpr(sb, x.E); err != nil {
			return err
		}
		sb.WriteString(")")
		return nil
	case *FuncCall:
		if x.Star {
			sb.WriteString(x.Name + "(*)")
			return nil
		}
		sb.WriteString(x.Name + "(")
		if err := renderExpr(sb, x.Arg); err != nil {
			return err
		}
		sb.WriteString(")")
		return nil
	case *BetweenExpr:
		sb.WriteString("(")
		if err := renderExpr(sb, x.E); err != nil {
			return err
		}
		if x.Negated {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" BETWEEN ")
		if err := renderExpr(sb, x.Lo); err != nil {
			return err
		}
		sb.WriteString(" AND ")
		if err := renderExpr(sb, x.Hi); err != nil {
			return err
		}
		sb.WriteString(")")
		return nil
	case *InExpr:
		sb.WriteString("(")
		if err := renderExpr(sb, x.E); err != nil {
			return err
		}
		if x.Negated {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		for i, v := range x.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			if err := renderExpr(sb, v); err != nil {
				return err
			}
		}
		sb.WriteString("))")
		return nil
	case *IsNullExpr:
		sb.WriteString("(")
		if err := renderExpr(sb, x.E); err != nil {
			return err
		}
		if x.Negated {
			sb.WriteString(" IS NOT NULL)")
		} else {
			sb.WriteString(" IS NULL)")
		}
		return nil
	default:
		return fmt.Errorf("sql: cannot render expression %T", e)
	}
}

// FormatValue renders one value as a SQL literal that Parse reproduces
// exactly — what clients embed into EXECUTE argument lists.
func FormatValue(v record.Value) string { return renderLiteral(v) }

// renderLiteral formats one value so the lexer and parser reproduce it
// exactly: decimal floats (never exponent notation), doubled quotes in
// text, NULL/TRUE/FALSE keywords.
func renderLiteral(v record.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case record.TypeInt:
		return strconv.FormatInt(v.I, 10)
	case record.TypeFloat:
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0" // keep the float type through re-parsing
		}
		return s
	case record.TypeText:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case record.TypeBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.String()
	}
}

// Normalize canonicalises statement text: lexes and rejoins with single
// spaces, so case of keywords, whitespace, comments and one trailing
// semicolon do not tell two statements apart. Literals stay in the text;
// the plan cache keys on Shape, which lifts them out.
func Normalize(src string) (string, error) {
	key, _, err := shape(src, false)
	return key, err
}

// Shape is the one lexer pass a statement pays before the plan cache: it
// returns the statement's shape key — Normalize's text with every number
// literal replaced by the type tag ?i or ?f and every string literal by ?s
// — and the lifted values in text order. What the parser consumes
// structurally stays in the key: NULL, TRUE, FALSE and the count after
// LIMIT. Two statements with one key parse to ASTs that differ only in the
// Val of their ParseSlots nodes, slot for slot of one type, so a plan
// compiled for one runs the other once the values are written into the
// slots — provided the plan reads literals through their nodes and is
// used by one statement at a time.
func Shape(src string) (key string, lits []record.Value, err error) {
	return shape(src, true)
}

func shape(src string, lift bool) (string, []record.Value, error) {
	l := NewLexer(src)
	var sb strings.Builder
	sb.Grow(len(src))
	var lits []record.Value
	// A semicolon is written only once a token follows it, which leaves
	// the one trailing terminator Parse accepts out of the key and keeps
	// every other one in: text Parse rejects must not share a key with
	// text it accepts.
	semi, afterLimit := false, false
	for {
		t, err := l.Next()
		if err != nil {
			return "", nil, err
		}
		if t.Kind == TokEOF {
			return sb.String(), lits, nil
		}
		if semi {
			sb.WriteString(" ;")
			semi = false
		}
		if t.Kind == TokSymbol && t.Text == ";" {
			semi = true
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		switch {
		case lift && t.Kind == TokNumber && !afterLimit:
			v, err := numberValue(t.Text)
			if err != nil {
				return "", nil, err
			}
			lits = append(lits, v)
			if v.Type == record.TypeFloat {
				sb.WriteString("?f")
			} else {
				sb.WriteString("?i")
			}
		case lift && t.Kind == TokString:
			lits = append(lits, record.Text(t.Text))
			sb.WriteString("?s")
		case t.Kind == TokString:
			sb.WriteString("'" + strings.ReplaceAll(t.Text, "'", "''") + "'")
		default:
			sb.WriteString(t.Text)
		}
		afterLimit = t.Kind == TokKeyword && t.Text == "LIMIT"
	}
}
