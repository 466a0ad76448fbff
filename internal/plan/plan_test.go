package plan

import (
	"fmt"
	"strings"
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/engine"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/storage"
	"veridb/internal/vmem"
)

// fixture builds the paper's quote/inventory tables plus an orders table
// with a secondary chain, populated deterministically.
func fixture(t *testing.T) *storage.Store {
	t.Helper()
	mem, err := vmem.New(enclave.NewForTest(5), vmem.Config{})
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
			record.Column{Name: "descr", Type: record.TypeText},
		),
		PrimaryKey: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := st.CreateTable(storage.TableSpec{
		Name: "orders",
		Schema: record.NewSchema(
			record.Column{Name: "oid", Type: record.TypeInt},
			record.Column{Name: "cust", Type: record.TypeInt},
			record.Column{Name: "total", Type: record.TypeFloat},
			record.Column{Name: "region", Type: record.TypeText},
		),
		PrimaryKey:   0,
		ChainColumns: []int{1}, // chain on cust
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][3]int64{{1, 100, 100}, {2, 100, 200}, {3, 500, 100}, {4, 600, 100}} {
		quote.InsertAt(record.Tuple{record.Int(r[0]), record.Int(r[1]), record.Float(float64(r[2]))}, nil)
	}
	for _, r := range [][2]int64{{1, 50}, {3, 200}, {4, 100}, {6, 100}} {
		inv.InsertAt(record.Tuple{record.Int(r[0]), record.Int(r[1]), record.Text(fmt.Sprintf("desc%d", r[0]))}, nil)
	}
	regions := []string{"east", "west"}
	for i := int64(1); i <= 20; i++ {
		orders.InsertAt(record.Tuple{
			record.Int(i), record.Int(i % 5), record.Float(float64(i) * 10),
			record.Text(regions[i%2]),
		}, nil)
	}
	return st
}

func run(t *testing.T, st *storage.Store, query string, opt Options) []record.Tuple {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	op, err := PlanSelect(st, stmt.(*sql.Select), opt)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	rows, err := engine.Drain(op, nil)
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	return rows
}

func rowStrings(rows []record.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func TestSelectStar(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `SELECT * FROM quote`, Options{})
	if len(rows) != 4 || len(rows[0]) != 3 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
	if rows[0][0].I != 1 { // chain order
		t.Fatalf("first row %v", rows[0])
	}
}

func TestWherePushdownRangeScan(t *testing.T) {
	st := fixture(t)
	stmt, _ := sql.Parse(`SELECT id FROM quote WHERE id >= 2 AND id <= 3`)
	op, err := PlanSelect(st, stmt.(*sql.Select), Options{})
	if err != nil {
		t.Fatal(err)
	}
	desc := Describe(op)
	if !strings.Contains(desc, "RangeScan") {
		t.Fatalf("no pushdown:\n%s", desc)
	}
	rows, err := engine.Drain(op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].I != 2 || rows[1][0].I != 3 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
}

func TestStrictBoundsRespected(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `SELECT id FROM quote WHERE id > 2 AND id < 4`, Options{})
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("strict range rows %v", rowStrings(rows))
	}
}

func TestSecondaryChainPushdown(t *testing.T) {
	st := fixture(t)
	stmt, _ := sql.Parse(`SELECT oid FROM orders WHERE cust = 2`)
	op, err := PlanSelect(st, stmt.(*sql.Select), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Describe(op), "RangeScan(orders as orders, col=cust)") {
		t.Fatalf("no secondary pushdown:\n%s", Describe(op))
	}
	rows, err := engine.Drain(op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // oids 2,7,12,17
		t.Fatalf("rows %v", rowStrings(rows))
	}
}

func TestPaperJoinAllStrategies(t *testing.T) {
	query := `SELECT q.id, q.count, i.count
		FROM quote AS q, inventory AS i
		WHERE q.id = i.id AND q.count > i.count`
	for name, opt := range map[string]Options{
		"auto":   {},
		"index":  {Join: JoinIndex},
		"merge":  {Join: JoinMerge},
		"hash":   {Join: JoinHash},
		"nested": {Join: JoinNested},
	} {
		t.Run(name, func(t *testing.T) {
			st := fixture(t)
			rows := run(t, st, query, opt)
			if len(rows) != 3 {
				t.Fatalf("%s: %d rows: %v", name, len(rows), rowStrings(rows))
			}
			want := map[int64][2]int64{1: {100, 50}, 3: {500, 200}, 4: {600, 100}}
			for _, r := range rows {
				w, ok := want[r[0].I]
				if !ok || r[1].I != w[0] || r[2].I != w[1] {
					t.Fatalf("%s: bad row %v", name, r)
				}
			}
			if err := st.Memory().VerifyAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestJoinOnSyntax(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `SELECT q.id FROM quote q JOIN inventory i ON q.id = i.id`, Options{})
	if len(rows) != 3 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
}

func TestAggregatesGlobal(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `SELECT COUNT(*), SUM(total), AVG(total), MIN(oid), MAX(oid) FROM orders`, Options{})
	if len(rows) != 1 {
		t.Fatalf("rows %d", len(rows))
	}
	r := rows[0]
	if r[0].I != 20 || r[1].F != 2100 || r[2].F != 105 || r[3].I != 1 || r[4].I != 20 {
		t.Fatalf("aggregates %v", rowStrings(rows))
	}
}

func TestGroupByHavingOrder(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `
		SELECT region, COUNT(*) AS n, SUM(total) AS revenue
		FROM orders
		GROUP BY region
		HAVING COUNT(*) > 1
		ORDER BY region`, Options{})
	if len(rows) != 2 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
	if rows[0][0].S != "east" || rows[0][1].I != 10 {
		t.Fatalf("east row %v", rows[0])
	}
	if rows[1][0].S != "west" || rows[1][1].I != 10 {
		t.Fatalf("west row %v", rows[1])
	}
	// east: even oids 2..20 → sum 10*(2+20)/2*10 = 1100
	if rows[0][2].F != 1100 || rows[1][2].F != 1000 {
		t.Fatalf("revenue %v", rowStrings(rows))
	}
}

func TestGroupByExprArithmetic(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `SELECT cust % 2, COUNT(*) FROM orders GROUP BY cust % 2 ORDER BY cust % 2`, Options{})
	// i=1..20, cust=i%5: each cust 0..4 has 4 rows. cust%2==0 covers
	// custs {0,2,4} = 12 rows; cust%2==1 covers {1,3} = 8 rows.
	if len(rows) != 2 || rows[0][1].I != 12 || rows[1][1].I != 8 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
}

func TestOrderByDescLimit(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `SELECT oid FROM orders ORDER BY total DESC LIMIT 3`, Options{})
	if len(rows) != 3 || rows[0][0].I != 20 || rows[1][0].I != 19 || rows[2][0].I != 18 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
}

func TestProjectionAliasAndExpr(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `SELECT oid * 2 AS double_id FROM orders WHERE oid = 5`, Options{})
	if len(rows) != 1 || rows[0][0].I != 10 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
	stmt, _ := sql.Parse(`SELECT oid * 2 AS double_id FROM orders`)
	op, _ := PlanSelect(st, stmt.(*sql.Select), Options{})
	if op.Schema()[0].Name != "double_id" {
		t.Fatalf("schema %v", op.Schema())
	}
}

func TestOrderByAliasAfterProjection(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `SELECT oid * 2 AS d FROM orders ORDER BY d DESC LIMIT 2`, Options{})
	if len(rows) != 2 || rows[0][0].I != 40 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
}

func TestThreeWayJoin(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `
		SELECT q.id, o.oid
		FROM quote q, inventory i, orders o
		WHERE q.id = i.id AND o.cust = q.id AND o.total >= 100`, Options{})
	// quote⋈inventory ids: 1,3,4; orders with cust in {1,3,4} and total>=100:
	// cust=1: oids 11,16 (totals 110,160); cust=3: 13,18; cust=4: 14,19.
	if len(rows) != 6 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanErrors(t *testing.T) {
	st := fixture(t)
	bad := []string{
		`SELECT * FROM missing`,
		`SELECT zzz FROM quote`,
		`SELECT q.id FROM quote q, quote q`,     // duplicate alias
		`SELECT id, COUNT(*) FROM quote`,        // bare column with aggregate
		`SELECT * FROM quote GROUP BY id`,       // * with aggregation
		`SELECT id FROM quote WHERE i.count= 1`, // unknown alias
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := PlanSelect(st, stmt.(*sql.Select), Options{}); err == nil {
			t.Fatalf("planned %q without error", q)
		}
	}
}

func TestUnqualifiedJoinColumnsGetQualified(t *testing.T) {
	// Q19-style: the equi-join condition names unqualified columns from
	// two different tables; the planner must still detect the equi-join
	// rather than degrading to a nested loop.
	st := fixture(t)
	stmt, _ := sql.Parse(`SELECT price FROM quote, inventory WHERE descr = 'desc1' AND price > 50`)
	// quote has price, inventory has descr: both refs are resolvable.
	if _, err := PlanSelect(st, stmt.(*sql.Select), Options{}); err != nil {
		t.Fatalf("unqualified single-table predicates: %v", err)
	}
	// Forced merge join on unqualified join columns must produce MergeJoin.
	stmt, _ = sql.Parse(`SELECT price FROM quote, orders WHERE oid = id`)
	op, err := PlanSelect(st, stmt.(*sql.Select), Options{Join: JoinMerge})
	if err != nil {
		t.Fatal(err)
	}
	if desc := Describe(op); !strings.Contains(desc, "MergeJoin") {
		t.Fatalf("unqualified equi-join did not plan a merge join:\n%s", desc)
	}
	rows, err := engine.Drain(op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // oids 1..4 match quote ids 1..4
		t.Fatalf("rows %v", rowStrings(rows))
	}
	// Ambiguous unqualified ref still errors cleanly.
	stmt, _ = sql.Parse(`SELECT price FROM quote, inventory WHERE count = 100`)
	if _, err := PlanSelect(st, stmt.(*sql.Select), Options{}); err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestBetweenPushdown(t *testing.T) {
	st := fixture(t)
	rows := run(t, st, `SELECT oid FROM orders WHERE oid BETWEEN 5 AND 7`, Options{})
	if len(rows) != 3 || rows[0][0].I != 5 || rows[2][0].I != 7 {
		t.Fatalf("rows %v", rowStrings(rows))
	}
}

func TestDescribeShapes(t *testing.T) {
	st := fixture(t)
	stmt, _ := sql.Parse(`SELECT region, COUNT(*) FROM orders WHERE oid > 3 GROUP BY region ORDER BY region LIMIT 1`)
	op, err := PlanSelect(st, stmt.(*sql.Select), Options{})
	if err != nil {
		t.Fatal(err)
	}
	desc := Describe(op)
	for _, want := range []string{"Limit", "Project", "Sort", "HashAggregate", "Filter", "RangeScan"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe missing %s:\n%s", want, desc)
		}
	}
}

// TestSelectStarHasNoProjection: a lone SELECT * returns its input's rows
// under its input's column names, with no identity Project copying them;
// its rows match the same columns named one by one, and a SELECT * beside
// another item still projects.
func TestSelectStarHasNoProjection(t *testing.T) {
	st := fixture(t)
	const from = ` FROM quote q JOIN inventory i ON q.id = i.id WHERE q.count > 1 ORDER BY q.price DESC LIMIT 3`
	stmt, _ := sql.Parse(`SELECT *` + from)
	op, err := PlanSelect(st, stmt.(*sql.Select), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if desc := Describe(op); strings.Contains(desc, "Project") {
		t.Fatalf("SELECT * kept a projection:\n%s", desc)
	}
	names, fixed := engine.Names(op)
	if got := strings.Join(names, ","); got != "id,count,price,id,count,descr" || !fixed {
		t.Fatalf("names = %s (fixed %v)", got, fixed)
	}
	star := run(t, st, `SELECT *`+from, Options{})
	listed := run(t, st, `SELECT q.id, q.count, q.price, i.id, i.count, i.descr`+from, Options{})
	if len(star) == 0 || fmt.Sprint(star) != fmt.Sprint(listed) {
		t.Fatalf("SELECT * rows %v, listed columns %v", star, listed)
	}
	stmt, _ = sql.Parse(`SELECT *, id FROM quote`)
	if op, err = PlanSelect(st, stmt.(*sql.Select), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*engine.Project); !ok {
		t.Fatalf("SELECT *, id planned without a projection:\n%s", Describe(op))
	}
}

// scanCols maps each base-table scan leaf of op, by alias, to its
// projection.
func scanCols(op engine.Operator, out map[string][]int) map[string][]int {
	switch x := op.(type) {
	case *engine.TableScan:
		out[x.Alias] = x.Cols
	case *engine.Filter:
		scanCols(x.Child, out)
	case *engine.Project:
		scanCols(x.Child, out)
	case *engine.Limit:
		scanCols(x.Child, out)
	case *engine.Sort:
		scanCols(x.Child, out)
	case *engine.HashAggregate:
		scanCols(x.Child, out)
	case *engine.Materialize:
		scanCols(x.Child, out)
	case *engine.IndexJoin:
		scanCols(x.Outer, out)
	case *engine.NestedLoopJoin:
		scanCols(x.Outer, out)
		scanCols(x.Inner, out)
	case *engine.MergeJoin:
		scanCols(x.Left, out)
		scanCols(x.Right, out)
	case *engine.HashJoin:
		scanCols(x.Left, out)
		scanCols(x.Right, out)
	}
	return out
}

// TestScansReadOnlyNeededColumns pins which columns each scan builds: those
// the statement names anywhere, in table order, or none (an empty, not a
// nil, projection), and the rows that come out of the narrower plans.
func TestScansReadOnlyNeededColumns(t *testing.T) {
	st := fixture(t)
	for _, tc := range []struct {
		query string
		opt   Options
		cols  map[string][]int
		rows  []string
	}{
		{query: `SELECT * FROM quote WHERE id = 3`, cols: map[string][]int{"quote": {0, 1, 2}}, rows: []string{"3|500|100"}},
		{query: `SELECT COUNT(*) FROM orders`, cols: map[string][]int{"orders": {}}, rows: []string{"20"}},
		{query: `SELECT COUNT(*) FROM orders WHERE oid > 15`, cols: map[string][]int{"orders": {0}}, rows: []string{"5"}},
		{
			query: `SELECT region, COUNT(*) FROM orders GROUP BY region HAVING SUM(total) > 1050 ORDER BY region`,
			cols:  map[string][]int{"orders": {2, 3}}, rows: []string{"east|10"},
		},
		{
			query: `SELECT oid FROM orders WHERE cust = 3 ORDER BY total DESC`,
			cols:  map[string][]int{"orders": {0, 1, 2}}, rows: []string{"18", "13", "8", "3"},
		},
		{
			query: `SELECT q.price FROM quote q JOIN orders o ON q.id = o.cust WHERE o.oid < 5`, opt: Options{Join: JoinHash},
			cols: map[string][]int{"q": {0, 2}, "o": {0, 1}}, rows: []string{"100", "200", "100", "100"},
		},
		{
			query: `SELECT descr FROM quote, inventory WHERE quote.id = inventory.id AND price > 150`, opt: Options{Join: JoinNested},
			cols: map[string][]int{"quote": {0, 2}, "inventory": {0, 2}}, rows: []string{},
		},
		{
			query: `SELECT descr FROM quote, inventory WHERE quote.id = inventory.id AND price < 150 ORDER BY descr`, opt: Options{Join: JoinMerge},
			cols: map[string][]int{"quote": {0, 2}, "inventory": {0, 2}}, rows: []string{"desc1", "desc3", "desc4"},
		},
	} {
		stmt, err := sql.Parse(tc.query)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.query, err)
		}
		op, err := PlanSelect(st, stmt.(*sql.Select), tc.opt)
		if err != nil {
			t.Fatalf("plan %q: %v", tc.query, err)
		}
		got := scanCols(op, map[string][]int{})
		if fmt.Sprint(got) != fmt.Sprint(tc.cols) {
			t.Errorf("%s: scans read %v, want %v", tc.query, got, tc.cols)
		}
		for alias, cols := range got {
			if (cols == nil) != (tc.cols[alias] == nil) {
				t.Errorf("%s: scan %s reads %#v, want %#v", tc.query, alias, cols, tc.cols[alias])
			}
		}
		if rows := rowStrings(run(t, st, tc.query, tc.opt)); strings.Join(rows, ",") != strings.Join(tc.rows, ",") {
			t.Errorf("%s: rows %v, want %v", tc.query, rows, tc.rows)
		}
	}
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestProjectedScansKeepAmbiguityErrors: a name owned by two tables is
// built on both sides, so it stays ambiguous, with the error it drew when
// every scan built every column, in the select list and in WHERE alike.
func TestProjectedScansKeepAmbiguityErrors(t *testing.T) {
	st := fixture(t)
	for query, want := range map[string]string{
		`SELECT count FROM quote, inventory WHERE quote.id = inventory.id`: `engine: ambiguous column "count"`,
		`SELECT price FROM quote, inventory WHERE count = 100`:             `plan: column "count" is ambiguous (in "quote" and "inventory")`,
		`SELECT id FROM quote q JOIN inventory i ON q.id = i.id`:           `engine: ambiguous column "id"`,
	} {
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}
		if _, err := PlanSelect(st, stmt.(*sql.Select), Options{}); err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", query, err, want)
		}
	}
}
