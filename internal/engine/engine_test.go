package engine

import (
	"fmt"
	"strings"
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/storage"
	"veridb/internal/vmem"
)

func compileStr(t *testing.T, src string, s Schema) *Compiled {
	t.Helper()
	st, err := sql.Parse("SELECT * FROM t WHERE " + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c, err := Compile(st.(*sql.Select).Where, s)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return c
}

func compileValue(t *testing.T, src string, s Schema) *Compiled {
	t.Helper()
	st, err := sql.Parse("SELECT " + src + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c, err := Compile(st.(*sql.Select).Items[0].Expr, s)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return c
}

var testSchema = Schema{
	{Table: "t", Name: "a", Type: record.TypeInt},
	{Table: "t", Name: "b", Type: record.TypeFloat},
	{Table: "t", Name: "s", Type: record.TypeText},
	{Table: "t", Name: "f", Type: record.TypeBool},
}

func row(a int64, b float64, s string, f bool) record.Tuple {
	return record.Tuple{record.Int(a), record.Float(b), record.Text(s), record.Bool(f)}
}

func TestCompileArithmeticAndComparison(t *testing.T) {
	r := row(6, 2.5, "x", true)
	cases := map[string]record.Value{
		"a + 1":                 record.Int(7),
		"a - 10":                record.Int(-4),
		"a * a":                 record.Int(36),
		"a / 4":                 record.Int(1), // integer division
		"a % 4":                 record.Int(2),
		"a + b":                 record.Float(8.5),
		"b * 2":                 record.Float(5.0),
		"a / 4.0":               record.Float(1.5),
		"-a":                    record.Int(-6),
		"a = 6":                 record.Bool(true),
		"a <> 6":                record.Bool(false),
		"a < b":                 record.Bool(false),
		"b <= 2.5":              record.Bool(true),
		"s = 'x'":               record.Bool(true),
		"f = TRUE":              record.Bool(true),
		"NOT f":                 record.Bool(false),
		"a > 5 AND f":           record.Bool(true),
		"a > 9 OR f":            record.Bool(true),
		"a BETWEEN 6 AND 7":     record.Bool(true),
		"a NOT BETWEEN 6 AND 7": record.Bool(false),
		"s IN ('y', 'x')":       record.Bool(true),
		"s NOT IN ('y')":        record.Bool(true),
		"s IS NULL":             record.Bool(false),
		"s IS NOT NULL":         record.Bool(true),
	}
	for src, want := range cases {
		c := compileValue(t, src, testSchema)
		got, err := c.Eval(r)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{"zzz = 1", "q.a = 1", "s + 1 = 2", "NOT a", "a AND f", "SUM(a) > 1"}
	for _, src := range bad {
		st, err := sql.Parse("SELECT * FROM t WHERE " + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c, err := Compile(st.(*sql.Select).Where, testSchema)
		if err != nil {
			continue // compile-time rejection is fine
		}
		if _, err := c.Eval(row(1, 1, "x", true)); err == nil {
			t.Fatalf("%q evaluated without error", src)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, src := range []string{"a / 0", "a % 0", "b / 0.0"} {
		c := compileValue(t, src, testSchema)
		if _, err := c.Eval(row(1, 1, "x", true)); err == nil {
			t.Fatalf("%q did not error", src)
		}
	}
}

func TestNullPropagation(t *testing.T) {
	s := Schema{{Table: "t", Name: "a", Type: record.TypeInt}}
	r := record.Tuple{record.Null(record.TypeInt)}
	c := compileValue(t, "a + 1", s)
	v, err := c.Eval(r)
	if err != nil || !v.Null {
		t.Fatalf("NULL+1 = %v, %v", v, err)
	}
	c = compileStr(t, "a = 1", s)
	pass, err := c.EvalBool(r)
	if err != nil || pass {
		t.Fatalf("NULL=1 passed filter: %v %v", pass, err)
	}
	c = compileStr(t, "a IS NULL", s)
	if pass, _ := c.EvalBool(r); !pass {
		t.Fatal("IS NULL false for null")
	}
}

func TestResolveAmbiguity(t *testing.T) {
	s := Schema{
		{Table: "x", Name: "id", Type: record.TypeInt},
		{Table: "y", Name: "id", Type: record.TypeInt},
	}
	if _, err := s.Resolve("", "id"); err == nil {
		t.Fatal("ambiguous reference accepted")
	}
	if i, err := s.Resolve("y", "id"); err != nil || i != 1 {
		t.Fatalf("qualified resolve: %d, %v", i, err)
	}
}

func valuesOp(rows ...record.Tuple) *Values {
	return &Values{Cols: testSchema, Rows: rows}
}

func TestFilterProjectLimit(t *testing.T) {
	src := valuesOp(
		row(1, 1.0, "a", true),
		row(2, 2.0, "b", false),
		row(3, 3.0, "c", true),
		row(4, 4.0, "d", true),
	)
	f := &Filter{Child: src, Pred: compileStr(t, "f AND a > 1", testSchema)}
	pr := &Project{
		Child: f,
		Exprs: []*Compiled{compileValue(t, "a * 10", testSchema), compileValue(t, "s", testSchema)},
		Names: []string{"a10", "s"},
	}
	lim := &Limit{Child: pr, N: 1}
	rows, err := Drain(lim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 30 || rows[0][1].S != "c" {
		t.Fatalf("rows = %v", rows)
	}
	if got := pr.Schema(); got[0].Name != "a10" || got[0].Type != record.TypeInt {
		t.Fatalf("schema %v", got)
	}
}

func TestSortAscDescStable(t *testing.T) {
	src := valuesOp(
		row(2, 9.0, "x", true),
		row(1, 5.0, "y", true),
		row(2, 1.0, "z", true),
		row(1, 7.0, "w", true),
	)
	s := &Sort{Child: src, Keys: []SortKey{
		{Expr: compileValue(t, "a", testSchema)},
		{Expr: compileValue(t, "b", testSchema), Desc: true},
	}}
	rows, err := Drain(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, fmt.Sprintf("%d/%g", r[0].I, r[1].F))
	}
	if strings.Join(got, " ") != "1/7 1/5 2/9 2/1" {
		t.Fatalf("sorted %v", got)
	}
}

func TestHashAggregateGrouped(t *testing.T) {
	src := valuesOp(
		row(1, 10.0, "g1", true),
		row(2, 20.0, "g1", true),
		row(3, 30.0, "g2", true),
		row(4, 0.0, "g2", true),
		row(5, 5.0, "g2", true),
	)
	agg := &HashAggregate{
		Child:   src,
		GroupBy: []*Compiled{compileValue(t, "s", testSchema)},
		Names:   []string{"s"},
		Aggs: []AggSpec{
			{Func: AggCount, Name: "cnt"},
			{Func: AggSum, Arg: compileValue(t, "b", testSchema), Name: "total"},
			{Func: AggAvg, Arg: compileValue(t, "b", testSchema), Name: "avg"},
			{Func: AggMin, Arg: compileValue(t, "a", testSchema), Name: "lo"},
			{Func: AggMax, Arg: compileValue(t, "a", testSchema), Name: "hi"},
		},
	}
	rows, err := Drain(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups %d", len(rows))
	}
	byName := map[string]record.Tuple{}
	for _, r := range rows {
		byName[r[0].S] = r
	}
	g1 := byName["g1"]
	if g1[1].I != 2 || g1[2].F != 30 || g1[3].F != 15 || g1[4].I != 1 || g1[5].I != 2 {
		t.Fatalf("g1 = %v", g1)
	}
	g2 := byName["g2"]
	if g2[1].I != 3 || g2[2].F != 35 || g2[4].I != 3 || g2[5].I != 5 {
		t.Fatalf("g2 = %v", g2)
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	agg := &HashAggregate{
		Child: valuesOp(),
		Aggs: []AggSpec{
			{Func: AggCount, Name: "cnt"},
			{Func: AggSum, Arg: compileValue(t, "a", testSchema), Name: "sum"},
			{Func: AggMin, Arg: compileValue(t, "a", testSchema), Name: "min"},
		},
	}
	rows, err := Drain(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0][0].I != 0 || !rows[0][1].Null || !rows[0][2].Null {
		t.Fatalf("empty aggregate = %v", rows[0])
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	src := &Values{Cols: Schema{{Name: "a", Type: record.TypeInt}}, Rows: []record.Tuple{
		{record.Int(10)}, {record.Null(record.TypeInt)}, {record.Int(20)},
	}}
	aCol := Schema{{Name: "a", Type: record.TypeInt}}
	agg := &HashAggregate{
		Child: src,
		Aggs: []AggSpec{
			{Func: AggCount, Arg: compileValue(t, "a", aCol), Name: "cnt"},
			{Func: AggCount, Name: "cntStar"},
			{Func: AggAvg, Arg: compileValue(t, "a", aCol), Name: "avg"},
		},
	}
	rows, err := Drain(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 2 || rows[0][1].I != 3 || rows[0][2].F != 15 {
		t.Fatalf("%v", rows[0])
	}
}

// join test fixtures: the paper's quote/inventory tables (Fig. 8).
func quoteInventory(t *testing.T) (*storage.Table, *storage.Table, *storage.Store) {
	t.Helper()
	mem, err := vmem.New(enclave.NewForTest(123), vmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(mem)
	quote, err := st.CreateTable(storage.TableSpec{
		Name: "quote",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "count", Type: record.TypeInt},
			record.Column{Name: "price", Type: record.TypeFloat},
		),
		PrimaryKey: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := st.CreateTable(storage.TableSpec{
		Name: "inventory",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "count", Type: record.TypeInt},
			record.Column{Name: "desc", Type: record.TypeText},
		),
		PrimaryKey: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8 contents (ids as integers 1..6).
	for _, r := range [][3]int64{{1, 100, 100}, {2, 100, 200}, {3, 500, 100}, {4, 600, 100}} {
		if err := quote.InsertAt(record.Tuple{record.Int(r[0]), record.Int(r[1]), record.Float(float64(r[2]))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]int64{{1, 50}, {3, 200}, {4, 100}, {6, 100}} {
		if err := inv.InsertAt(record.Tuple{record.Int(r[0]), record.Int(r[1]), record.Text(fmt.Sprintf("desc%d", r[0]))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return quote, inv, st
}

// paperJoinResult is the §5.4 expected output: quotes whose count exceeds
// the inventory balance: (1,100,50) and (3,500,200) and (4,600,100).
func checkPaperJoin(t *testing.T, rows []record.Tuple) {
	t.Helper()
	if len(rows) != 3 {
		t.Fatalf("join rows = %d (%v), want 3", len(rows), rows)
	}
	want := map[int64][2]int64{1: {100, 50}, 3: {500, 200}, 4: {600, 100}}
	for _, r := range rows {
		w, ok := want[r[0].I]
		if !ok || r[1].I != w[0] || r[2].I != w[1] {
			t.Fatalf("unexpected join row %v", r)
		}
	}
}

func TestIndexJoinPaperExample(t *testing.T) {
	quote, inv, st := quoteInventory(t)
	outer := NewTableScan(quote, "q")
	j := &IndexJoin{
		Outer:      outer,
		InnerTable: inv,
		InnerAlias: "i",
		InnerCol:   0,
		OuterKey:   compileValue(t, "q.id", outer.Schema()),
	}
	j.Residual = compileStr(t, "q.count > i.count", j.Schema())
	pr := projectCols(t, j, "q.id", "q.count", "i.count")
	rows, err := Drain(pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperJoin(t, rows)
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func projectCols(t *testing.T, child Operator, cols ...string) *Project {
	t.Helper()
	exprs := make([]*Compiled, len(cols))
	names := make([]string, len(cols))
	for i, c := range cols {
		st, err := sql.Parse("SELECT " + c + " FROM t")
		if err != nil {
			t.Fatal(err)
		}
		e, err := Compile(st.(*sql.Select).Items[0].Expr, child.Schema())
		if err != nil {
			t.Fatal(err)
		}
		exprs[i] = e
		names[i] = c
	}
	return &Project{Child: child, Exprs: exprs, Names: names}
}

func TestNestedLoopJoinPaperExample(t *testing.T) {
	quote, inv, _ := quoteInventory(t)
	j := &NestedLoopJoin{
		Outer: NewTableScan(quote, "q"),
		Inner: NewTableScan(inv, "i"),
	}
	j.On = compileStr(t, "q.id = i.id AND q.count > i.count", j.Schema())
	rows, err := Drain(projectCols(t, j, "q.id", "q.count", "i.count"), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperJoin(t, rows)
}

func TestMergeJoinPaperExample(t *testing.T) {
	quote, inv, _ := quoteInventory(t)
	l := NewTableScan(quote, "q") // chain scans emit in pk order: presorted
	r := NewTableScan(inv, "i")
	j := &MergeJoin{
		Left:     l,
		Right:    r,
		LeftKey:  compileValue(t, "q.id", l.Schema()),
		RightKey: compileValue(t, "i.id", r.Schema()),
	}
	j.Residual = compileStr(t, "q.count > i.count", j.Schema())
	rows, err := Drain(projectCols(t, j, "q.id", "q.count", "i.count"), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperJoin(t, rows)
}

func TestHashJoinPaperExample(t *testing.T) {
	quote, inv, _ := quoteInventory(t)
	l := NewTableScan(quote, "q")
	r := NewTableScan(inv, "i")
	j := &HashJoin{
		Left:     l,
		Right:    r,
		LeftKey:  compileValue(t, "q.id", l.Schema()),
		RightKey: compileValue(t, "i.id", r.Schema()),
	}
	j.Residual = compileStr(t, "q.count > i.count", j.Schema())
	rows, err := Drain(projectCols(t, j, "q.id", "q.count", "i.count"), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperJoin(t, rows)
}

func TestMergeJoinDuplicateKeys(t *testing.T) {
	ls := Schema{{Table: "l", Name: "k", Type: record.TypeInt}, {Table: "l", Name: "v", Type: record.TypeText}}
	rs := Schema{{Table: "r", Name: "k", Type: record.TypeInt}, {Table: "r", Name: "w", Type: record.TypeText}}
	mk := func(k int64, s string) record.Tuple { return record.Tuple{record.Int(k), record.Text(s)} }
	left := &Values{Cols: ls, Rows: []record.Tuple{mk(1, "a"), mk(2, "b1"), mk(2, "b2"), mk(3, "c")}}
	right := &Values{Cols: rs, Rows: []record.Tuple{mk(2, "x"), mk(2, "y"), mk(4, "z")}}
	j := &MergeJoin{
		Left: left, Right: right,
		LeftKey:  compileValue(t, "l.k", ls),
		RightKey: compileValue(t, "r.k", rs),
	}
	rows, err := Drain(j, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // (b1,x)(b1,y)(b2,x)(b2,y)
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
}

func TestRangeScanOperator(t *testing.T) {
	quote, _, _ := quoteInventory(t)
	lo, hi := record.Int(2), record.Int(3)
	scan := NewRangeScan(quote, "q", 0, []*record.Value{&lo}, []*record.Value{&hi})
	rows, err := Drain(scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].I != 2 || rows[1][0].I != 3 {
		t.Fatalf("range rows %v", rows)
	}
	if scan.Visited() < 2 {
		t.Fatalf("Visited = %d", scan.Visited())
	}
	// Of several same-side bounds the scan takes the tightest each time it
	// opens: the bounds point into a statement a cached plan is rebound to.
	lows := []record.Value{record.Int(1), record.Int(3)}
	loose := record.Int(4)
	scan = NewRangeScan(quote, "q", 0, []*record.Value{&lows[0], &lows[1]}, []*record.Value{&loose, &hi})
	for _, want := range []int{1, 2} { // [3,3], then [2,3]
		if rows, err = Drain(scan, nil); err != nil || len(rows) != want || rows[want-1][0].I != 3 {
			t.Fatalf("tightest of two bounds per side: rows %v, err %v, want %d ending at 3", rows, err, want)
		}
		lows[0], lows[1] = record.Int(2), record.Int(0)
	}
}

func TestOperatorReopen(t *testing.T) {
	quote, _, _ := quoteInventory(t)
	scan := NewTableScan(quote, "q")
	r1, err := Drain(scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Drain(scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) || len(r1) != 4 {
		t.Fatalf("reopen changed results: %d vs %d", len(r1), len(r2))
	}
}
