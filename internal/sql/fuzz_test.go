package sql

// The plan cache runs one statement's literals through another statement's
// AST, on the strength of two texts having one shape key. FuzzShape is that
// contract on arbitrary text, with the lexer/Normalize/Render/BindParams
// round trips the same pass leans on:
//
//   - Shape and Normalize never panic, and fail exactly when the text does
//     not lex or holds a number the parser would refuse too.
//   - For text that parses, ParseSlots returns one slot per lifted literal,
//     each holding that literal.
//   - Normalized text parses to the same statement and has the same shape.
//   - A DML statement's Render parses back to the same statement.
//   - A PREPARE template binds to a statement without placeholders through
//     exactly NumParams literal nodes.
//   - If a and b have one shape key, both parse or neither does (a hit never
//     parses the text it runs), and writing b's literals into a's slots
//     makes a's AST b's.

import (
	"fmt"
	"strings"
	"testing"

	"veridb/internal/record"
)

// dump renders everything of a statement the executor reads: its clause
// structure and the source form of every expression.
func dump(st Statement) string {
	var sb strings.Builder
	switch s := st.(type) {
	case *Select:
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
	case *Insert:
		fmt.Fprintf(&sb, "INSERT %s %v", s.Table, s.Columns)
		for _, r := range s.Rows {
			fmt.Fprintf(&sb, " row(%d)", len(r))
		}
	case *Update:
		fmt.Fprintf(&sb, "UPDATE %s where=%v", s.Table, s.Where != nil)
		for _, a := range s.Set {
			fmt.Fprintf(&sb, " set(%s)", a.Column)
		}
	case *Delete:
		fmt.Fprintf(&sb, "DELETE %s where=%v", s.Table, s.Where != nil)
	case *Prepare:
		return fmt.Sprintf("PREPARE %s %d: %s", s.Name, s.NumParams, dump(s.Stmt))
	case *Explain:
		return "EXPLAIN " + dump(s.Query)
	case *ExecutePrepared:
		fmt.Fprintf(&sb, "EXECUTE %s", s.Name)
		for _, a := range s.Args {
			sb.WriteString(" | " + a.String())
		}
	default:
		return fmt.Sprintf("%T%+v", st, st)
	}
	forEachExpr(st, func(e Expr) {
		if e != nil {
			sb.WriteString(" | " + e.String())
		}
	})
	return sb.String()
}

// checkShape is the contract on one text; it returns what the pair check
// needs, or ok == false when the text does not parse.
func checkShape(t *testing.T, src string) (key string, lits []record.Value, st Statement, slots []*Literal, ok bool) {
	key, lits, serr := Shape(src)
	norm, nerr := Normalize(src)
	st, slots, perr := ParseSlots(src)
	if _, terr := Tokenize(src); terr != nil && (serr == nil || nerr == nil || perr == nil) {
		t.Fatalf("%q does not lex (%v) but Shape %v, Normalize %v, Parse %v", src, terr, serr, nerr, perr)
	}
	if perr != nil {
		return "", nil, nil, nil, false
	}
	if serr != nil || nerr != nil {
		t.Fatalf("%q parses but Shape %v, Normalize %v", src, serr, nerr)
	}
	if len(slots) != len(lits) {
		t.Fatalf("%q: %d slots for %d lifted literals (key %q)", src, len(slots), len(lits), key)
	}
	for i, s := range slots {
		if !s.Val.Equal(lits[i]) || s.Val.Type != lits[i].Type {
			t.Fatalf("%q: slot %d holds %v, Shape lifted %v", src, i, s.Val, lits[i])
		}
	}
	want := dump(st)
	if again, err := Parse(norm); err != nil || dump(again) != want {
		t.Fatalf("%q normalizes to %q, which parses to %v %v, not %s", src, norm, again, err, want)
	}
	if k2, _, err := Shape(norm); err != nil || k2 != key {
		t.Fatalf("%q has shape %q, its normal form %q has %q (%v)", src, key, norm, k2, err)
	}
	if text, err := Render(st); err == nil {
		if again, err := Parse(text); err != nil || dump(again) != want {
			t.Fatalf("%q renders to %q, which parses to %v %v, not %s", src, text, again, err, want)
		}
	}
	if p, isPrep := st.(*Prepare); isPrep {
		vals := make([]record.Value, p.NumParams)
		for i := range vals {
			vals[i] = record.Int(int64(i))
		}
		bound, nodes, err := BindParams(p.Stmt, vals)
		if err != nil || len(nodes) != p.NumParams || CountParams(bound) != 0 {
			t.Fatalf("%q: BindParams gave %d nodes for %d placeholders, %d left, err %v", src, len(nodes), p.NumParams, CountParams(bound), err)
		}
	}
	return key, lits, st, slots, true
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
		ka, _, errA := Shape(a)
		kb, _, errB := Shape(b)
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
		if got, want := dump(sa), dump(sb); got != want {
			t.Fatalf("%q and %q share shape %q, but b's literals in a's AST give\n%s\nnot\n%s", a, b, ka, got, want)
		}
	})
}
