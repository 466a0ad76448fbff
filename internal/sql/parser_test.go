package sql

import (
	"strings"
	"testing"

	"veridb/internal/record"
)

func parseSelect(t *testing.T, src string) *Select {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := st.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, st)
	}
	return sel
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, 'it''s' FROM t -- comment\nWHERE x >= 1.5;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", "FROM", "t", "WHERE", "x", ">=", "1.5", ";", ""}
	for i, w := range want {
		if texts[i] != w {
			t.Fatalf("token %d = %q, want %q (all: %v)", i, texts[i], w, texts)
		}
	}
	if kinds[3] != TokString || kinds[9] != TokNumber {
		t.Fatalf("kinds wrong: %v", kinds)
	}
}

// TestTokenizeStringLiterals: a literal's text is its body with each
// escaped (doubled) quote undone, wherever in the body it stands, and
// the token after it starts where the closing quote ends.
func TestTokenizeStringLiterals(t *testing.T) {
	for src, want := range map[string]string{
		`'abc' x`:     "abc",
		`'' x`:        "",
		`'it''s' x`:   "it's",
		`'''' x`:      "'",
		`'''a''' x`:   "'a'",
		`'a''b''c' x`: "a'b'c",
	} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if toks[0].Kind != TokString || toks[0].Text != want || toks[1].Text != "x" {
			t.Fatalf("%s: got %+v, want string %q then x", src, toks, want)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"SELECT 'unterminated", "SELECT 'it''", "SELECT '"} {
		if _, err := Tokenize(src); err == nil {
			t.Fatalf("unterminated string %s accepted", src)
		}
	}
	if _, err := Tokenize("SELECT @x"); err == nil {
		t.Fatal("bad character accepted")
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse(`CREATE TABLE quote (
		id INT PRIMARY KEY,
		count INT,
		price FLOAT,
		note TEXT,
		INDEX(count),
		INDEX(price)
	)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "quote" || len(ct.Columns) != 4 {
		t.Fatalf("parsed %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Type != record.TypeInt {
		t.Fatalf("pk column %+v", ct.Columns[0])
	}
	if len(ct.Indexes) != 2 || ct.Indexes[0] != "count" {
		t.Fatalf("indexes %v", ct.Indexes)
	}
}

func TestParseCreateTableTableLevelPK(t *testing.T) {
	st, err := Parse(`CREATE TABLE t (a INT, b TEXT, PRIMARY KEY (b))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Columns[0].PrimaryKey || !ct.Columns[1].PrimaryKey {
		t.Fatalf("%+v", ct.Columns)
	}
	if _, err := Parse(`CREATE TABLE t (a INT, PRIMARY KEY (zzz))`); err == nil {
		t.Fatal("unknown pk column accepted")
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	if lit := ins.Rows[0][1].(*Literal); lit.Val.S != "x" {
		t.Fatalf("row value %v", lit)
	}
	if lit := ins.Rows[1][1].(*Literal); !lit.Val.Null {
		t.Fatal("NULL literal lost")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	st, err := Parse(`UPDATE t SET a = a + 1, b = 'y' WHERE id = 5`)
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	st, err = Parse(`DELETE FROM t WHERE id > 3 AND id < 9`)
	if err != nil {
		t.Fatal(err)
	}
	del := st.(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("%+v", del)
	}
	st, err = Parse(`DELETE FROM t`)
	if err != nil || st.(*Delete).Where != nil {
		t.Fatalf("unconditional delete: %v", err)
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM quote`)
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Fatalf("%+v", sel.Items)
	}
	if sel.From[0].Table != "quote" || sel.From[0].Alias != "quote" {
		t.Fatalf("%+v", sel.From)
	}
}

func TestParsePaperExampleQuery(t *testing.T) {
	// The §5.4 running example.
	sel := parseSelect(t, `
		SELECT q.id, q.count, i.count
		FROM quote AS q, inventory AS i
		WHERE q.id = i.id AND q.count > i.count`)
	if len(sel.Items) != 3 || len(sel.From) != 2 {
		t.Fatalf("%+v", sel)
	}
	if sel.From[0].Alias != "q" || sel.From[1].Alias != "i" {
		t.Fatalf("aliases %+v", sel.From)
	}
	w := sel.Where.(*BinaryExpr)
	if w.Op != "AND" {
		t.Fatalf("where %v", sel.Where)
	}
}

func TestParseJoinOn(t *testing.T) {
	sel := parseSelect(t, `SELECT a.x FROM a JOIN b ON a.id = b.id WHERE a.x > 1`)
	if len(sel.Joins) != 1 || sel.Joins[0].Ref.Table != "b" {
		t.Fatalf("%+v", sel.Joins)
	}
	sel = parseSelect(t, `SELECT a.x FROM a INNER JOIN b ON a.id = b.id`)
	if len(sel.Joins) != 1 {
		t.Fatalf("%+v", sel.Joins)
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	sel := parseSelect(t, `
		SELECT flag, COUNT(*), SUM(qty * price) AS revenue, AVG(disc), MIN(qty), MAX(qty)
		FROM lineitem
		WHERE ship <= 100
		GROUP BY flag
		HAVING COUNT(*) > 10
		ORDER BY flag DESC
		LIMIT 5`)
	if len(sel.Items) != 6 {
		t.Fatalf("items %d", len(sel.Items))
	}
	if fc := sel.Items[1].Expr.(*FuncCall); fc.Name != "COUNT" || !fc.Star {
		t.Fatalf("%+v", fc)
	}
	if sel.Items[2].Alias != "revenue" {
		t.Fatalf("alias %q", sel.Items[2].Alias)
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("group %v having %v", sel.GroupBy, sel.Having)
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Fatalf("order %+v", sel.OrderBy)
	}
	if sel.Limit != 5 {
		t.Fatalf("limit %d", sel.Limit)
	}
}

func TestParseBetweenInIsNull(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b IN ('x','y') AND c IS NOT NULL AND d NOT IN (1) AND e NOT BETWEEN 2 AND 3`)
	s := sel.Where.String()
	for _, frag := range []string{"BETWEEN 1 AND 10", "IN ('x', 'y')", "IS NOT NULL", "NOT IN (1)", "NOT BETWEEN 2 AND 3"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("where %q missing %q", s, frag)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t WHERE a + b * 2 = 7 OR NOT c < 1 AND d = 2`)
	got := sel.Where.String()
	want := "(((a + (b * 2)) = 7) OR ((NOT (c < 1)) AND (d = 2)))"
	if got != want {
		t.Fatalf("precedence: got %s want %s", got, want)
	}
}

func TestParseUnaryMinusAndFloat(t *testing.T) {
	sel := parseSelect(t, `SELECT -x, 0.5, .25 FROM t`)
	if u := sel.Items[0].Expr.(*UnaryExpr); u.Op != "-" {
		t.Fatalf("%+v", u)
	}
	if l := sel.Items[1].Expr.(*Literal); l.Val.F != 0.5 {
		t.Fatalf("%v", l)
	}
	if l := sel.Items[2].Expr.(*Literal); l.Val.F != 0.25 {
		t.Fatalf("%v", l)
	}
}

func TestParseNotEqualSpellings(t *testing.T) {
	for _, op := range []string{"<>", "!="} {
		sel := parseSelect(t, `SELECT * FROM t WHERE a `+op+` 1`)
		if b := sel.Where.(*BinaryExpr); b.Op != "<>" {
			t.Fatalf("op %q parsed as %q", op, b.Op)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT INTO t VALUES 1",
		"UPDATE t SET",
		"CREATE TABLE t ()",
		"SELECT * FROM t LIMIT x",
		"SELECT SUM(*) FROM t",
		"SELECT * FROM t extra garbage following",
		"SELECT a b c FROM t",
		"DELETE t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded", src)
		}
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	sel := parseSelect(t, `select x from t where x > 1 order by x limit 3`)
	if sel.Limit != 3 || len(sel.OrderBy) != 1 {
		t.Fatalf("%+v", sel)
	}
}

func TestExprStringRoundTrips(t *testing.T) {
	// String() output must itself re-parse to an identical tree for a
	// sample of shapes (used in error messages and plan dumps).
	exprs := []string{
		"(a = 1)",
		"((a + b) * 2)",
		"(COUNT(*) > 10)",
		"(x BETWEEN 1 AND 2)",
		"(name IN ('a', 'b'))",
	}
	for _, e := range exprs {
		sel := parseSelect(t, "SELECT * FROM t WHERE "+e)
		again := parseSelect(t, "SELECT * FROM t WHERE "+sel.Where.String())
		if sel.Where.String() != again.Where.String() {
			t.Fatalf("%q: %q != %q", e, sel.Where.String(), again.Where.String())
		}
	}
}
