package sql

import (
	"fmt"
	"strings"

	"veridb/internal/record"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       record.Type
	PrimaryKey bool
}

// CreateTable is CREATE TABLE name (cols..., INDEX(col)...).
type CreateTable struct {
	Name    string
	Columns []ColumnDef
	Indexes []string // chain columns beyond the primary key (§5.3)
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// Explain is EXPLAIN SELECT ...: it asks for the physical plan instead of
// executing the query.
type Explain struct{ Query *Select }

// Insert is INSERT INTO name [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string // empty: schema order
	Rows    [][]Expr
}

// Assignment is one SET col = expr.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE name SET ... [WHERE ...].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Delete is DELETE FROM name [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

// SelectItem is one projection: expression plus optional alias; a bare *
// is represented by Star.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef is one FROM entry.
type TableRef struct {
	Table string
	Alias string
}

// JoinClause is an explicit JOIN ... ON.
type JoinClause struct {
	Ref TableRef
	On  Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is the SPJA query form.
type Select struct {
	Items   []SelectItem
	From    []TableRef
	Joins   []JoinClause
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int // -1: none
}

// Prepare is PREPARE name AS <statement>: it registers a parameterized
// statement template (with ? placeholders) under a name; EXECUTE runs the
// template's tokens with its arguments in place (Expand).
type Prepare struct {
	Name string
	Stmt Statement // SELECT, INSERT, UPDATE or DELETE template
	// Tokens are the template's tokens, from its first keyword to its last
	// token before any trailing semicolon.
	Tokens []Token
	// NumParams is how many ? placeholders the template holds; EXECUTE
	// must bind exactly this many arguments.
	NumParams int
}

// ExecutePrepared is EXECUTE name [(args...)]: it binds constant
// arguments to a prepared template's placeholders and runs it.
type ExecutePrepared struct {
	Name string
	Args []Expr // constant expressions, one per placeholder
}

// Deallocate is DEALLOCATE name: it drops a prepared statement.
type Deallocate struct{ Name string }

// BeginSnapshot is BEGIN SNAPSHOT: it pins the session's read point at
// the current commit watermark. Until COMMIT, every SELECT in the session
// reads that one consistent committed state; mutating statements are
// rejected (the session is read-only while pinned).
type BeginSnapshot struct{}

// CommitSnapshot is COMMIT: it releases the session's pinned snapshot.
type CommitSnapshot struct{}

func (*CreateTable) stmt()     {}
func (*DropTable) stmt()       {}
func (*Explain) stmt()         {}
func (*Insert) stmt()          {}
func (*Update) stmt()          {}
func (*Delete) stmt()          {}
func (*Select) stmt()          {}
func (*Prepare) stmt()         {}
func (*ExecutePrepared) stmt() {}
func (*Deallocate) stmt()      {}
func (*BeginSnapshot) stmt()   {}
func (*CommitSnapshot) stmt()  {}

// Expr is any expression node.
type Expr interface {
	expr()
	String() string
}

// ColumnRef is a possibly qualified column reference.
type ColumnRef struct {
	Table  string // alias or table name; empty if unqualified
	Column string
}

// Literal is a constant value.
type Literal struct{ Val record.Value }

// Param is one ? placeholder inside a PREPARE template. It is never
// compiled: EXECUTE parses the template again with the argument's value
// token in the placeholder's place.
type Param struct{}

// BinaryExpr applies Op to L and R. Ops: OR AND = <> < <= > >= + - * / %.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies Op (NOT, -) to E.
type UnaryExpr struct {
	Op string
	E  Expr
}

// FuncCall is an aggregate call: COUNT(*), SUM(e), AVG(e), MIN(e), MAX(e).
type FuncCall struct {
	Name string // upper case
	Arg  Expr   // nil for COUNT(*)
	Star bool
}

// BetweenExpr is e BETWEEN lo AND hi (inclusive both ends).
type BetweenExpr struct {
	E, Lo, Hi Expr
	Negated   bool
}

// InExpr is e IN (list...).
type InExpr struct {
	E       Expr
	List    []Expr
	Negated bool
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E       Expr
	Negated bool
}

func (*ColumnRef) expr()   {}
func (*Literal) expr()     {}
func (*Param) expr()       {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncCall) expr()    {}
func (*BetweenExpr) expr() {}
func (*InExpr) expr()      {}
func (*IsNullExpr) expr()  {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}
func (l *Literal) String() string {
	if !l.Val.Null && l.Val.Type == record.TypeText {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	return l.Val.String()
}
func (p *Param) String() string { return "?" }
func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}
func (u *UnaryExpr) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.E) }
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	return fmt.Sprintf("%s(%s)", f.Name, f.Arg)
}
func (b *BetweenExpr) String() string {
	n := ""
	if b.Negated {
		n = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", b.E, n, b.Lo, b.Hi)
}
func (i *InExpr) String() string {
	parts := make([]string, len(i.List))
	for j, e := range i.List {
		parts[j] = e.String()
	}
	n := ""
	if i.Negated {
		n = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", i.E, n, strings.Join(parts, ", "))
}
func (i *IsNullExpr) String() string {
	if i.Negated {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}
