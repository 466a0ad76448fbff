package sql

import (
	"fmt"
	"strconv"
	"strings"

	"veridb/internal/record"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks []Token
	pos  int
	// nparams counts ? placeholders seen in the current top-level
	// statement; placeholders are legal only inside a PREPARE template.
	nparams int
	// slots are the literal nodes built from number, string and INT, FLOAT
	// or TEXT value tokens, in text order: exactly the tokens Shape lifts
	// out of the cache key.
	slots []*Literal
}

// Parse parses a single statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	st, _, err := ParseSlots(src)
	return st, err
}

// ParseSlots is Parse that also returns the statement's bind slots: the
// *Literal nodes of the returned AST that came from number and string
// tokens, in text order. Slot i holds the value Shape reports at index i
// for the same text, so writing another statement's Shape values into the
// slots' Val turns this AST into that statement's, provided both have the
// same shape key.
func ParseSlots(src string) (Statement, []*Literal, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, nil, err
	}
	return parseTokens(toks)
}

// parseTokens parses one statement from tokens ending in EOF.
func parseTokens(toks []Token) (Statement, []*Literal, error) {
	p := &Parser{toks: toks}
	st, err := p.topStatement()
	if err != nil {
		return nil, nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, nil, fmt.Errorf("sql: trailing input starting at %s", p.cur())
	}
	return st, p.slots, nil
}

// topStatement parses one statement and enforces that ? placeholders
// appear only under PREPARE.
func (p *Parser) topStatement() (Statement, error) {
	p.nparams = 0
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if p.nparams > 0 {
		if _, ok := st.(*Prepare); !ok {
			return nil, fmt.Errorf("sql: ? placeholders are only valid inside PREPARE")
		}
	}
	return st, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }
func (p *Parser) atEOF() bool {
	return p.cur().Kind == TokEOF
}
func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) acceptKeyword(kw string) bool {
	if t := p.cur(); t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, found %s at offset %d", kw, p.cur(), p.cur().Pos)
	}
	return nil
}

func (p *Parser) acceptSymbol(sym string) bool {
	if t := p.cur(); t.Kind == TokSymbol && t.Text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("sql: expected %q, found %s at offset %d", sym, p.cur(), p.cur().Pos)
	}
	return nil
}

func (p *Parser) ident() (string, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", fmt.Errorf("sql: expected identifier, found %s at offset %d", t, t.Pos)
	}
	p.pos++
	return t.Text, nil
}

func (p *Parser) statement() (Statement, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, fmt.Errorf("sql: expected statement keyword, found %s at offset %d", t, t.Pos)
	}
	switch t.Text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "EXPLAIN":
		p.advance()
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		sel, ok := inner.(*Select)
		if !ok {
			return nil, fmt.Errorf("sql: EXPLAIN supports only SELECT")
		}
		return &Explain{Query: sel}, nil
	case "PREPARE":
		return p.prepareStmt()
	case "EXECUTE":
		return p.executeStmt()
	case "DEALLOCATE":
		p.advance()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Deallocate{Name: name}, nil
	case "BEGIN":
		p.advance()
		if err := p.expectKeyword("SNAPSHOT"); err != nil {
			return nil, err
		}
		return &BeginSnapshot{}, nil
	case "COMMIT":
		p.advance()
		return &CommitSnapshot{}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement %s at offset %d", t, t.Pos)
	}
}

// prepareStmt parses PREPARE name AS <statement>. The template may hold
// ? placeholders; their count is recorded for EXECUTE-time arity checks.
func (p *Parser) prepareStmt() (Statement, error) {
	p.advance() // PREPARE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	start := p.pos
	inner, err := p.statement()
	if err != nil {
		return nil, err
	}
	switch inner.(type) {
	case *Select, *Insert, *Update, *Delete:
	default:
		return nil, fmt.Errorf("sql: PREPARE supports SELECT, INSERT, UPDATE and DELETE, got %T", inner)
	}
	return &Prepare{Name: name, Stmt: inner, Tokens: p.toks[start:p.pos], NumParams: p.nparams}, nil
}

// executeStmt parses EXECUTE name [(args...)]. Arguments are constant
// expressions, evaluated and bound positionally to the template's
// placeholders.
func (p *Parser) executeStmt() (Statement, error) {
	p.advance() // EXECUTE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ex := &ExecutePrepared{Name: name}
	if p.acceptSymbol("(") {
		if !p.acceptSymbol(")") {
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				ex.Args = append(ex.Args, e)
				if p.acceptSymbol(",") {
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
	}
	return ex, nil
}

func (p *Parser) createStmt() (Statement, error) {
	p.advance() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		if p.acceptKeyword("PRIMARY") {
			// table-level PRIMARY KEY (col)
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			found := false
			for i := range ct.Columns {
				if strings.EqualFold(ct.Columns[i].Name, col) {
					ct.Columns[i].PrimaryKey = true
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("sql: PRIMARY KEY names unknown column %q", col)
			}
		} else if p.acceptKeyword("INDEX") {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ct.Indexes = append(ct.Indexes, col)
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := p.columnType()
			if err != nil {
				return nil, err
			}
			def := ColumnDef{Name: col, Type: typ}
			if p.acceptKeyword("PRIMARY") {
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				def.PrimaryKey = true
			}
			ct.Columns = append(ct.Columns, def)
		}
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) columnType() (record.Type, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return 0, fmt.Errorf("sql: expected column type, found %s at offset %d", t, t.Pos)
	}
	p.pos++
	switch t.Text {
	case "INT":
		return record.TypeInt, nil
	case "FLOAT":
		return record.TypeFloat, nil
	case "TEXT":
		return record.TypeText, nil
	case "BOOL":
		return record.TypeBool, nil
	default:
		return 0, fmt.Errorf("sql: unknown type %s at offset %d", t, t.Pos)
	}
}

func (p *Parser) dropStmt() (Statement, error) {
	p.advance() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *Parser) insertStmt() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.acceptSymbol("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *Parser) updateStmt() (Statement, error) {
	p.advance() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		if up.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return up, nil
}

func (p *Parser) deleteStmt() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: name}
	if p.acceptKeyword("WHERE") {
		if del.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return del, nil
}

func (p *Parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name, Alias: name}
	if p.acceptKeyword("AS") {
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	} else if p.cur().Kind == TokIdent {
		ref.Alias = p.advance().Text
	}
	return ref, nil
}

func (p *Parser) selectStmt() (Statement, error) {
	p.advance() // SELECT
	sel := &Select{Limit: -1}
	for {
		if p.acceptSymbol("*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.cur().Kind == TokIdent {
				item.Alias = p.advance().Text
			}
			sel.Items = append(sel.Items, item)
		}
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, ref)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Ref: ref, On: on})
	}
	var err error
	if p.acceptKeyword("WHERE") {
		if sel.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		if sel.Having, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.cur()
		if t.Kind != TokNumber {
			return nil, fmt.Errorf("sql: LIMIT wants a number, found %s", t)
		}
		p.pos++
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.Text)
		}
		sel.Limit = n
	}
	return sel, nil
}

// Expression grammar, loosest to tightest:
//
//	expr     := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := NOT notExpr | predicate
//	predicate:= addExpr [cmpOp addExpr | BETWEEN .. AND .. | IN (..) | IS [NOT] NULL]
//	addExpr  := mulExpr ((+|-) mulExpr)*
//	mulExpr  := unary ((*|/|%) unary)*
//	unary    := - unary | primary
//	primary  := literal | columnRef | aggCall | ( expr )
func (p *Parser) expr() (Expr, error) { return p.orExpr() }

func (p *Parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.predicate()
}

func (p *Parser) predicate() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.Kind == TokSymbol {
		switch t.Text {
		case "=", "<", "<=", ">", ">=", "<>", "!=":
			p.pos++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			op := t.Text
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	negated := false
	if p.cur().Kind == TokKeyword && p.cur().Text == "NOT" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokKeyword &&
		(p.toks[p.pos+1].Text == "BETWEEN" || p.toks[p.pos+1].Text == "IN") {
		p.pos++
		negated = true
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Negated: negated}, nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Negated: negated}, nil
	}
	if negated {
		return nil, fmt.Errorf("sql: dangling NOT before %s", p.cur())
	}
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Negated: neg}, nil
	}
	return l, nil
}

func (p *Parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == TokSymbol && (t.Text == "+" || t.Text == "-") {
			p.pos++
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *Parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == TokSymbol && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.pos++
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *Parser) unary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	return p.primary()
}

// slot builds the literal node of a number or string token and records it
// as the statement's next bind slot.
func (p *Parser) slot(v record.Value) *Literal {
	lit := &Literal{Val: v}
	p.slots = append(p.slots, lit)
	return lit
}

// numberValue is the value of a number token: FLOAT when it has a decimal
// point, INT otherwise.
func numberValue(text string) (record.Value, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return record.Value{}, fmt.Errorf("sql: bad float literal %q", text)
		}
		return record.Float(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return record.Value{}, fmt.Errorf("sql: bad int literal %q", text)
	}
	return record.Int(i), nil
}

var aggFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *Parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.pos++
		v, err := numberValue(t.Text)
		if err != nil {
			return nil, err
		}
		return p.slot(v), nil
	case TokString:
		p.pos++
		return p.slot(record.Text(t.Text)), nil
	case TokValue:
		// The node the argument's literal text would give, whatever its
		// sign: a bind slot, or a NULL, TRUE or FALSE keyword's.
		p.pos++
		switch v := *t.Val; {
		case slotValue(v):
			return p.slot(v), nil
		case v.Null:
			return &Literal{Val: record.Null(record.TypeInt)}, nil
		default:
			return &Literal{Val: v}, nil
		}
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return &Literal{Val: record.Null(record.TypeInt)}, nil
		case "TRUE":
			p.pos++
			return &Literal{Val: record.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: record.Bool(false)}, nil
		}
		return nil, fmt.Errorf("sql: unexpected keyword %s in expression at offset %d", t, t.Pos)
	case TokIdent:
		p.pos++
		// Aggregate names are context-sensitive, not reserved: the paper's
		// example tables use "count" as a column name (Fig. 8).
		if upper := strings.ToUpper(t.Text); aggFuncs[upper] &&
			p.cur().Kind == TokSymbol && p.cur().Text == "(" {
			p.pos++ // consume (
			fc := &FuncCall{Name: upper}
			if p.acceptSymbol("*") {
				if upper != "COUNT" {
					return nil, fmt.Errorf("sql: %s(*) is not valid", upper)
				}
				fc.Star = true
			} else {
				p.acceptKeyword("DISTINCT") // parsed, treated as plain (documented)
				arg, err := p.expr()
				if err != nil {
					return nil, err
				}
				fc.Arg = arg
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if p.acceptSymbol(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "?" {
			p.pos++
			p.nparams++
			return &Param{}, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected %s in expression at offset %d", t, t.Pos)
}
