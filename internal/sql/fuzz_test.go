package sql_test

// The plan cache runs one statement's literals through another statement's
// AST, on the strength of two texts having one shape key. FuzzShape is that
// contract on arbitrary text, with the lexer and Normalize round trips the
// same pass leans on, and the expansion an EXECUTE runs as:
//
//   - Shape and Normalize never panic, and fail exactly when the text does
//     not lex or holds a number the parser would refuse too.
//   - For text that parses, ParseSlots returns one slot per lifted literal,
//     each holding that literal.
//   - Normalized text parses to the same statement and has the same shape.
//   - A PREPARE template expanded with any values (edge values and quotes
//     included) has one ParseSlots slot per lifted literal, each holding
//     that literal; its text (what the WAL logs) parses to the same
//     statement, every argument evaluating to its value; and with
//     arguments that are plain literals, that text has the expansion's
//     shape and literals.
//   - If a and b have one shape key, both parse or neither does (a hit never
//     parses the text it runs), and writing b's literals into a's slots
//     makes a's AST b's.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"veridb/internal/record"
	"veridb/internal/sql"
)

// roots are the expression roots of a statement, in clause order.
func roots(st sql.Statement) []sql.Expr {
	var out []sql.Expr
	switch s := st.(type) {
	case *sql.Insert:
		for _, row := range s.Rows {
			out = append(out, row...)
		}
	case *sql.Update:
		for _, a := range s.Set {
			out = append(out, a.Value)
		}
		out = append(out, s.Where)
	case *sql.Delete:
		out = append(out, s.Where)
	case *sql.Select:
		for _, it := range s.Items {
			out = append(out, it.Expr)
		}
		for _, j := range s.Joins {
			out = append(out, j.On)
		}
		out = append(out, s.Where)
		out = append(out, s.GroupBy...)
		out = append(out, s.Having)
		for _, o := range s.OrderBy {
			out = append(out, o.Expr)
		}
	}
	return out
}

// dump renders everything of a statement the executor reads: its clause
// structure and, through show, every expression.
func dump(st sql.Statement, show func(sql.Expr) string) string {
	var sb strings.Builder
	switch s := st.(type) {
	case *sql.Select:
		fmt.Fprintf(&sb, "SELECT from=%v limit=%d", s.From, s.Limit)
		for _, it := range s.Items {
			fmt.Fprintf(&sb, " item(%q,%v)", it.Alias, it.Star)
		}
		for _, j := range s.Joins {
			fmt.Fprintf(&sb, " join(%v)", j.Ref)
		}
		fmt.Fprintf(&sb, " group=%d having=%v", len(s.GroupBy), s.Having != nil)
		for _, o := range s.OrderBy {
			fmt.Fprintf(&sb, " order(%v)", o.Desc)
		}
	case *sql.Insert:
		fmt.Fprintf(&sb, "INSERT %s %v", s.Table, s.Columns)
		for _, r := range s.Rows {
			fmt.Fprintf(&sb, " row(%d)", len(r))
		}
	case *sql.Update:
		fmt.Fprintf(&sb, "UPDATE %s where=%v", s.Table, s.Where != nil)
		for _, a := range s.Set {
			fmt.Fprintf(&sb, " set(%s)", a.Column)
		}
	case *sql.Delete:
		fmt.Fprintf(&sb, "DELETE %s where=%v", s.Table, s.Where != nil)
	case *sql.Prepare:
		return fmt.Sprintf("PREPARE %s %d: %s", s.Name, s.NumParams, dump(s.Stmt, show))
	case *sql.Explain:
		return "EXPLAIN " + dump(s.Query, show)
	case *sql.ExecutePrepared:
		fmt.Fprintf(&sb, "EXECUTE %s", s.Name)
		for _, a := range s.Args {
			sb.WriteString(" | " + show(a))
		}
	default:
		return fmt.Sprintf("%T%+v", st, st)
	}
	for _, e := range roots(st) {
		if e != nil {
			sb.WriteString(" | " + show(e))
		}
	}
	return sb.String()
}

// source shows an expression in its source form.
func source(e sql.Expr) string { return e.String() }

// folded shows an expression with every constant subtree as the value the
// engine evaluates it to, so an argument reads the same as one literal
// node and as the expression its text may be.
func folded(e sql.Expr) string {
	if v, err := eval(e); err == nil {
		if v.Type == record.TypeFloat {
			return fmt.Sprintf("FLOAT(%x)", math.Float64bits(v.F)) // NaN is checked apart
		}
		return fmt.Sprintf("%s(%v,%q)", v.Type, v.Null, v.String())
	}
	switch x := e.(type) {
	case *sql.BinaryExpr:
		return "(" + folded(x.L) + " " + x.Op + " " + folded(x.R) + ")"
	case *sql.UnaryExpr:
		return "(" + x.Op + " " + folded(x.E) + ")"
	case *sql.FuncCall:
		if x.Star {
			return x.String()
		}
		return x.Name + "(" + folded(x.Arg) + ")"
	case *sql.BetweenExpr:
		return fmt.Sprintf("(%s %v BETWEEN %s AND %s)", folded(x.E), x.Negated, folded(x.Lo), folded(x.Hi))
	case *sql.InExpr:
		list := make([]string, len(x.List))
		for i, v := range x.List {
			list[i] = folded(v)
		}
		return fmt.Sprintf("(%s %v IN %v)", folded(x.E), x.Negated, list)
	case *sql.IsNullExpr:
		return fmt.Sprintf("(%s IS NULL %v)", folded(x.E), x.Negated)
	}
	return e.String()
}

// sameSlots fails unless slots and lits hold identical values, one for one.
func sameSlots(t *testing.T, what string, slots []*sql.Literal, lits []record.Value) {
	t.Helper()
	if len(slots) != len(lits) {
		t.Fatalf("%s: %d slots for %d lifted literals", what, len(slots), len(lits))
	}
	for i, s := range slots {
		if !identical(s.Val, lits[i]) {
			t.Fatalf("%s: slot %d holds %v, Shape lifted %v", what, i, s.Val, lits[i])
		}
	}
}

// checkShape is the contract on one text; it returns what the pair check
// needs, or ok == false when the text does not parse.
func checkShape(t *testing.T, src string) (key string, lits []record.Value, st sql.Statement, slots []*sql.Literal, ok bool) {
	key, lits, serr := sql.Shape(src)
	norm, nerr := sql.Normalize(src)
	st, slots, perr := sql.ParseSlots(src)
	if _, terr := sql.Tokenize(src); terr != nil && (serr == nil || nerr == nil || perr == nil) {
		t.Fatalf("%q does not lex (%v) but Shape %v, Normalize %v, Parse %v", src, terr, serr, nerr, perr)
	}
	if perr != nil {
		return "", nil, nil, nil, false
	}
	if serr != nil || nerr != nil {
		t.Fatalf("%q parses but Shape %v, Normalize %v", src, serr, nerr)
	}
	sameSlots(t, fmt.Sprintf("%q (key %q)", src, key), slots, lits)
	want := dump(st, source)
	if again, err := sql.Parse(norm); err != nil || dump(again, source) != want {
		t.Fatalf("%q normalizes to %q, which parses to %v %v, not %s", src, norm, again, err, want)
	}
	if k2, _, err := sql.Shape(norm); err != nil || k2 != key {
		t.Fatalf("%q has shape %q, its normal form %q has %q (%v)", src, key, norm, k2, err)
	}
	return key, lits, st, slots, true
}

// edgeValues are the arguments the expansion check draws from: the values
// no literal spells, signed and tiny ones, quotes, and the keywords.
var edgeValues = []record.Value{
	record.Int(math.MinInt64), record.Int(math.MaxInt64), record.Int(-5), record.Int(0), record.Int(42),
	record.Float(math.Inf(1)), record.Float(math.Inf(-1)), record.Float(math.NaN()),
	record.Float(math.Copysign(0, -1)), record.Float(0.0000001), record.Float(2), record.Float(-4.5),
	record.Float(math.MaxFloat64), record.Float(math.SmallestNonzeroFloat64),
	record.Text("it's"), record.Text("''"), record.Text(""),
	record.Bool(true), record.Bool(false), record.Null(record.TypeText),
}

// argValues picks n arguments by the bytes of seed: edge values, and seed
// itself as text.
func argValues(n int, seed string) []record.Value {
	vals := make([]record.Value, n)
	for i := range vals {
		c := i
		if i < len(seed) {
			c = int(seed[i])
		}
		if c %= len(edgeValues) + 1; c < len(edgeValues) {
			vals[i] = edgeValues[c]
		} else {
			vals[i] = record.Text(seed)
		}
	}
	return vals
}

// checkExpansion is the contract on a PREPARE template expanded with vals.
func checkExpansion(t *testing.T, p *sql.Prepare, vals []record.Value) {
	x, err := p.Expand(vals)
	if err != nil {
		t.Fatalf("%s with %v: %v", dump(p, source), vals, err)
	}
	text := x.String()
	key, lits, serr := x.Shape()
	st, slots, perr := x.ParseSlots()
	if serr != nil || perr != nil {
		t.Fatalf("%q: Shape %v, ParseSlots %v", text, serr, perr)
	}
	sameSlots(t, fmt.Sprintf("expansion %q (key %q)", text, key), slots, lits)
	again, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("expansion text %q does not parse: %v", text, err)
	}
	if got, want := dump(again, folded), dump(st, folded); got != want {
		t.Fatalf("expansion text %q parses to\n%s\nnot the expansion's\n%s", text, got, want)
	}
	for _, v := range vals {
		if f := sql.FormatValue(v); f[0] == '-' || f[0] == '(' {
			return // a negative or computed literal is not one node in text
		}
	}
	k2, l2, err := sql.Shape(text)
	if err != nil || k2 != key {
		t.Fatalf("expansion text %q has shape %q (%v), the expansion %q", text, k2, err, key)
	}
	sameSlots(t, fmt.Sprintf("expansion text %q", text), slots, l2)
}

func FuzzShape(f *testing.F) {
	for _, pair := range [][2]string{
		// The benchmark's statement templates.
		{`SELECT v FROM kv WHERE k = 7`, `SELECT v FROM kv WHERE k = 199999`},
		{`UPDATE kv SET v = 'abc' WHERE k = 1`, `update kv set v='it''s'   where k=2;`},
		{`INSERT INTO kv VALUES (1,'a'),(2,'b')`, `INSERT INTO kv VALUES (3,''),(4,'d''')`},
		{`DELETE FROM kv WHERE k = 5`, `DELETE FROM kv WHERE k = 5.0`},
		{`SELECT COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE l_id BETWEEN 1 AND 2000`,
			`SELECT COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE l_id BETWEEN 17 AND 2016`},
		{`SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_id BETWEEN 1 AND 9 AND l_discount >= 0.05 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
			`SELECT l_id, l_extendedprice FROM lineitem WHERE l_id BETWEEN 1 AND 9 ORDER BY l_extendedprice DESC LIMIT 100`},
		{`SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_id BETWEEN 1 AND 9 AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,
			`SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem, part WHERE p_partkey = l_partkey AND l_id BETWEEN 1 AND 9 AND l_quantity <= 25 AND p_size <= 25`},
		// parser_test.go's statements.
		{`SELECT a, 'it''s' FROM t -- comment` + "\nWHERE x >= 1.5;", `SELECT a, '' FROM t WHERE x >= .5`},
		{`SELECT q.id, q.count, i.count FROM quote AS q, inventory AS i WHERE q.id = i.id AND q.count > i.count`,
			`SELECT * FROM quote q JOIN inventory i ON q.id = i.id WHERE q.count > 100`},
		{`SELECT id, SUM(count) AS total, COUNT(*) FROM quote GROUP BY id HAVING SUM(count) > 10 ORDER BY total DESC, id ASC LIMIT 5`,
			`SELECT id, SUM(count) AS total, COUNT(*) FROM quote GROUP BY id HAVING SUM(count) > 99 ORDER BY total DESC, id ASC LIMIT 50`},
		{`SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b NOT IN (1, 2, 3) AND c IS NOT NULL OR NOT d`,
			`SELECT * FROM t WHERE a NOT BETWEEN -1 AND - 5 AND b IN ('x') AND c IS NULL`},
		{`SELECT -a + 2.5 * (b - 1) / 3 % 2 FROM t WHERE a <> 1 AND b != 2`, `SELECT TRUE, FALSE, NULL, 1 FROM t`},
		{`CREATE TABLE quote (id INT PRIMARY KEY, count INT, price FLOAT, note TEXT, ok BOOL, INDEX(count))`, `DROP TABLE quote`},
		{`PREPARE p AS SELECT id FROM quote WHERE count = ? AND price < ? LIMIT 3`, `PREPARE q AS UPDATE t SET a = ?, b = 2 WHERE c = ?`},
		{`PREPARE ins AS INSERT INTO kv VALUES (?, ?, ?, ?);`, `PREPARE d AS DELETE FROM kv WHERE k - ? > -? AND v IN (?, 'x') OR ? IS NULL`},
		{`PREPARE s AS SELECT ?, k * ? FROM kv WHERE k BETWEEN ? AND ? ORDER BY k LIMIT 5`, `'`},
		{`EXECUTE p (100, 2.5)`, `EXECUTE p (- 7, 1 + 2)`},
		{`EXPLAIN SELECT id FROM quote WHERE id = 1`, `DEALLOCATE p`},
		{`BEGIN SNAPSHOT`, `COMMIT;`},
		// What must not parse, or must not share a key.
		{`SELECT v FROM kv ; WHERE k = 1`, `SELECT v FROM kv WHERE k = 1;;`},
		{`SELECT 99999999999999999999 FROM t`, `SELECT 'unterminated`},
		{`SELECT id FROM t LIMIT 1`, `SELECT id FROM t LIMIT 2`},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		_, _, sa, slots, okA := checkShape(t, a)
		_, lb, sb, _, okB := checkShape(t, b)
		for _, st := range []sql.Statement{sa, sb} {
			if p, ok := st.(*sql.Prepare); ok {
				checkExpansion(t, p, argValues(p.NumParams, a+b))
			}
		}
		ka, _, errA := sql.Shape(a)
		kb, _, errB := sql.Shape(b)
		if errA != nil || errB != nil || ka != kb {
			return
		}
		if okA != okB {
			t.Fatalf("%q and %q share shape %q, but only one of them parses", a, b, ka)
		}
		if !okA {
			return
		}
		for i, s := range slots {
			s.Val = lb[i]
		}
		if got, want := dump(sa, source), dump(sb, source); got != want {
			t.Fatalf("%q and %q share shape %q, but b's literals in a's AST give\n%s\nnot\n%s", a, b, ka, got, want)
		}
	})
}
