package engine

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/govern"
	"veridb/internal/record"
	"veridb/internal/storage"
	"veridb/internal/vmem"
)

// groupedSpec is a table with a secondary chain on its second column.
func groupedSpec() storage.TableSpec {
	return storage.TableSpec{
		Name: "grouped",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "grp", Type: record.TypeInt},
		),
		PrimaryKey:   0,
		ChainColumns: []int{1},
	}
}

// countingOp wraps Values and counts Opens, to pin Materialize semantics.
type countingOp struct {
	Values
	opens int
}

func (c *countingOp) Open() error {
	c.opens++
	return c.Values.Open()
}

func TestMaterializeDrainsChildOnce(t *testing.T) {
	src := &countingOp{Values: Values{
		Cols: Schema{{Name: "a", Type: record.TypeInt}},
		Rows: []record.Tuple{{record.Int(1)}, {record.Int(2)}},
	}}
	m := &Materialize{Child: src}
	for round := 0; round < 3; round++ {
		rows, err := Drain(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("round %d: %d rows", round, len(rows))
		}
	}
	if src.opens != 1 {
		t.Fatalf("child opened %d times, want 1", src.opens)
	}
}

func TestNestedLoopWithMaterializedInner(t *testing.T) {
	quote, inv, _ := quoteInventory(t)
	innerScan := NewTableScan(inv, "i")
	j := &NestedLoopJoin{
		Outer: NewTableScan(quote, "q"),
		Inner: &Materialize{Child: innerScan},
	}
	j.On = compileStr(t, "q.id = i.id AND q.count > i.count", j.Schema())
	rows, err := Drain(projectCols(t, j, "q.id", "q.count", "i.count"), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperJoin(t, rows)
	// The inner verified scan ran exactly once despite 4 outer rows.
	if v := innerScan.Visited(); v == 0 || v > 10 {
		t.Fatalf("inner scan visited %d chain records", v)
	}
}

func TestIndexJoinOnSecondaryChain(t *testing.T) {
	// Join probing a non-primary chained column with duplicates.
	quote, _, st := quoteInventory(t)
	// Build a table with a secondary chain on "grp".
	grp, err := st.CreateTable(groupedSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 9; i++ {
		if err := grp.InsertAt(record.Tuple{record.Int(i), record.Int(i % 3)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	outer := NewTableScan(quote, "q")
	j := &IndexJoin{
		Outer:      outer,
		InnerTable: grp,
		InnerAlias: "g",
		InnerCol:   1, // grp column with chain
		OuterKey:   compileValue(t, "q.id % 3", outer.Schema()),
	}
	rows, err := Drain(j, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 4 quote rows matches 3 grp rows (grp values 0,1,2 each
	// appear 3 times).
	if len(rows) != 12 {
		t.Fatalf("rows %d, want 12", len(rows))
	}
}

func TestLimitZero(t *testing.T) {
	src := valuesOp(row(1, 1, "a", true))
	rows, err := Drain(&Limit{Child: src, N: 0}, nil)
	if err != nil || len(rows) != 0 {
		t.Fatalf("LIMIT 0: %v, %v", rows, err)
	}
}

func TestSortEmptyInput(t *testing.T) {
	s := &Sort{Child: valuesOp(), Keys: []SortKey{{Expr: compileValue(t, "a", testSchema)}}}
	rows, err := Drain(s, nil)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty sort: %v, %v", rows, err)
	}
}

func TestHashJoinEmptyBuildSide(t *testing.T) {
	ls := Schema{{Table: "l", Name: "k", Type: record.TypeInt}}
	j := &HashJoin{
		Left:     &Values{Cols: ls, Rows: []record.Tuple{{record.Int(1)}}},
		Right:    &Values{Cols: Schema{{Table: "r", Name: "k", Type: record.TypeInt}}},
		LeftKey:  compileValue(t, "l.k", ls),
		RightKey: compileValue(t, "r.k", Schema{{Table: "r", Name: "k", Type: record.TypeInt}}),
	}
	rows, err := Drain(j, nil)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty build side: %v, %v", rows, err)
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	ls := Schema{{Table: "l", Name: "k", Type: record.TypeInt}}
	rs := Schema{{Table: "r", Name: "k", Type: record.TypeInt}}
	for name, rows := range map[string][2][]record.Tuple{
		"bothEmpty":  {nil, nil},
		"leftEmpty":  {nil, {{record.Int(1)}}},
		"rightEmpty": {{{record.Int(1)}}, nil},
	} {
		j := &MergeJoin{
			Left:     &Values{Cols: ls, Rows: rows[0]},
			Right:    &Values{Cols: rs, Rows: rows[1]},
			LeftKey:  compileValue(t, "l.k", ls),
			RightKey: compileValue(t, "r.k", rs),
		}
		out, err := Drain(j, nil)
		if err != nil || len(out) != 0 {
			t.Fatalf("%s: %v, %v", name, out, err)
		}
	}
}

// drainAt attaches a statement Exec of the given batch capacity to the
// tree and drains it.
func drainAt(op Operator, capacity int) ([]record.Tuple, error) {
	ex := &Exec{batchCap: capacity}
	SetExec(op, ex)
	return Drain(op, ex)
}

// capacityFixture is src, 50 rows (i, "p<i>") for i in 1..50, plus, in the
// same store, dim: the 25 even ids 2..50 with a secondary chain on grp =
// (id/2)%5, so every join strategy and the secondary-chain probe have
// partial matches.
func capacityFixture(t *testing.T) (*storage.Store, *storage.Table, *storage.Table) {
	t.Helper()
	mem, err := vmem.New(enclave.NewForTest(31), vmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(mem)
	src, err := st.CreateTable(storage.TableSpec{
		Name: "src",
		Schema: record.NewSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "payload", Type: record.TypeText},
		),
		PrimaryKey: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := src.InsertAt(record.Tuple{record.Int(int64(i)), record.Text(fmt.Sprintf("p%d", i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	spec := groupedSpec()
	spec.Name = "dim"
	dim, err := st.CreateTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(2); id <= 50; id += 2 {
		if err := dim.InsertAt(record.Tuple{record.Int(id), record.Int((id / 2) % 5)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return st, src, dim
}

// TestOperatorsCapacityInvariant drains every operator at batch capacities
// 1, 7 and 256. The recorded rows (count and FNV-1a of their printed form),
// error text and per-scan Visited() counts are what the tuple-at-a-time
// executor produced for the same trees before it was deleted: every
// capacity must reproduce the rows and the error, and capacity 1 — one row
// per NextBatch through the same operators — must also read exactly the
// chain records the scalar path read.
func TestOperatorsCapacityInvariant(t *testing.T) {
	st, cases := operatorCases(t)
	for _, tc := range cases {
		for _, capacity := range []int{1, 7, 256} {
			op, scans := tc.build()
			rows, err := drainAt(op, capacity)
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			h := fnv.New64a()
			fmt.Fprint(h, rows)
			if errText != tc.err || len(rows) != tc.rows || h.Sum64() != tc.hash {
				t.Errorf("%s capacity %d: rows %d hash %#x err %q; scalar executor gave rows %d hash %#x err %q",
					tc.name, capacity, len(rows), h.Sum64(), errText, tc.rows, tc.hash, tc.err)
			}
			if capacity != 1 {
				continue
			}
			visited := make([]int, len(scans))
			for i, s := range scans {
				visited[i] = s.Visited()
			}
			if fmt.Sprint(visited) != fmt.Sprint(tc.visited) {
				t.Errorf("%s capacity 1: scans visited %v chain records, scalar executor visited %v",
					tc.name, visited, tc.visited)
			}
		}
	}
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// operatorCase is one operator tree of the capacity and reset tests with
// what the scalar executor produced for it.
type operatorCase struct {
	name    string
	build   func() (Operator, []*TableScan)
	rows    int
	hash    uint64
	visited []int
	err     string
}

// operatorCases builds a tree around every operator type over
// capacityFixture's tables.
func operatorCases(t *testing.T) (*storage.Store, []operatorCase) {
	st, src, dim := capacityFixture(t)
	srcScan := func() *TableScan { return NewTableScan(src, "s") }
	srcRange := func(lo, hi int64) *TableScan {
		l, h := record.Int(lo), record.Int(hi)
		return NewRangeScan(src, "s", 0, []*record.Value{&l}, []*record.Value{&h})
	}
	dimScan := func() *TableScan { return NewTableScan(dim, "d") }
	filter := func(child Operator, pred string) *Filter {
		return &Filter{Child: child, Pred: compileStr(t, pred, child.Schema())}
	}
	project := func(child Operator, exprs ...string) *Project {
		p := &Project{Child: child, Names: exprs}
		for _, e := range exprs {
			p.Exprs = append(p.Exprs, compileValue(t, e, child.Schema()))
		}
		return p
	}
	return st, []operatorCase{
		{name: "scan", rows: 50, hash: 0x8fcb28e48fd03483, visited: []int{51}, build: func() (Operator, []*TableScan) {
			s := srcScan()
			return s, []*TableScan{s}
		}},
		{name: "rangeScan", rows: 21, hash: 0xc618bd90e65704ed, visited: []int{21}, build: func() (Operator, []*TableScan) {
			s := srcRange(10, 30)
			return s, []*TableScan{s}
		}},
		{name: "filter", rows: 10, hash: 0xa0339a64df65d8cb, visited: []int{51}, build: func() (Operator, []*TableScan) {
			s := srcScan()
			return filter(s, "s.id % 5 = 0"), []*TableScan{s}
		}},
		{name: "filterWholeBatchesDie", rows: 10, hash: 0xbb38b71b49111fc1, visited: []int{51}, build: func() (Operator, []*TableScan) {
			s := srcScan()
			return filter(s, "s.id > 40"), []*TableScan{s}
		}},
		{name: "stackedFilters", rows: 20, hash: 0xb96e1330ccbb3739, visited: []int{51}, build: func() (Operator, []*TableScan) {
			s := srcScan()
			return filter(filter(s, "s.id > 10"), "s.id % 2 = 0"), []*TableScan{s}
		}},
		{name: "project", rows: 10, hash: 0x3503efbc76939727, visited: []int{51}, build: func() (Operator, []*TableScan) {
			s := srcScan()
			return project(filter(s, "s.id % 5 = 0"), "s.id * 2", "s.payload"), []*TableScan{s}
		}},
		{name: "limitCutsBatch", rows: 10, hash: 0x9226e46753b140ab, visited: []int{11}, build: func() (Operator, []*TableScan) {
			s := srcScan()
			return &Limit{Child: s, N: 10}, []*TableScan{s}
		}},
		{name: "limitOverFilter", rows: 3, hash: 0xab457d0d751f23a3, visited: []int{16}, build: func() (Operator, []*TableScan) {
			s := srcScan()
			return &Limit{Child: filter(s, "s.id % 5 = 0"), N: 3}, []*TableScan{s}
		}},
		{name: "sort", rows: 21, hash: 0xe98252953de4289d, visited: []int{21}, build: func() (Operator, []*TableScan) {
			s := srcRange(10, 30)
			return &Sort{Child: s, Keys: []SortKey{{Expr: compileValue(t, "s.id", s.Schema()), Desc: true}}}, []*TableScan{s}
		}},
		{name: "materialize", rows: 50, hash: 0x8fcb28e48fd03483, visited: []int{51}, build: func() (Operator, []*TableScan) {
			s := srcScan()
			return &Materialize{Child: s}, []*TableScan{s}
		}},
		{name: "values", rows: 5, hash: 0x550f5e6031fe981f, build: func() (Operator, []*TableScan) {
			v := &Values{Cols: testSchema, Rows: edgeRows()}
			return filter(v, "a IS NOT NULL"), nil
		}},
		{name: "hashAggregate", rows: 4, hash: 0xd2af63bec8cb2500, visited: []int{51}, build: func() (Operator, []*TableScan) {
			s := srcScan()
			return &HashAggregate{
				Child:   s,
				GroupBy: []*Compiled{compileValue(t, "s.id % 4", s.Schema())},
				Names:   []string{"g"},
				Aggs: []AggSpec{
					{Func: AggCount, Name: "n"},
					{Func: AggSum, Arg: compileValue(t, "s.id", s.Schema()), Name: "sum"},
				},
			}, []*TableScan{s}
		}},
		{name: "nestedLoopJoin", rows: 5, hash: 0xcaf427cefafe516e, visited: []int{10, 26}, build: func() (Operator, []*TableScan) {
			o, i := srcRange(1, 10), dimScan()
			j := &NestedLoopJoin{Outer: o, Inner: i}
			j.On = compileStr(t, "s.id = d.id", j.Schema())
			return j, []*TableScan{o, i}
		}},
		{name: "indexJoinPrimary", rows: 25, hash: 0xc637c83620f2288e, visited: []int{51}, build: func() (Operator, []*TableScan) {
			o := srcScan()
			return &IndexJoin{Outer: o, InnerTable: dim, InnerAlias: "d", InnerCol: 0,
				OuterKey: compileValue(t, "s.id", o.Schema())}, []*TableScan{o}
		}},
		{name: "indexJoinSecondaryChain", rows: 20, hash: 0x445e39921b5abfe1, visited: []int{6}, build: func() (Operator, []*TableScan) {
			o := srcRange(1, 6)
			return &IndexJoin{Outer: o, InnerTable: dim, InnerAlias: "d", InnerCol: 1,
				OuterKey: compileValue(t, "s.id", o.Schema())}, []*TableScan{o}
		}},
		{name: "limitOverIndexJoin", rows: 5, hash: 0xcaf427cefafe516e, visited: []int{11}, build: func() (Operator, []*TableScan) {
			o := srcScan()
			return &Limit{N: 5, Child: &IndexJoin{Outer: o, InnerTable: dim, InnerAlias: "d", InnerCol: 0,
				OuterKey: compileValue(t, "s.id", o.Schema())}}, []*TableScan{o}
		}},
		{name: "mergeJoin", rows: 25, hash: 0xc637c83620f2288e, visited: []int{51, 26}, build: func() (Operator, []*TableScan) {
			l, r := srcScan(), dimScan()
			return &MergeJoin{Left: l, Right: r,
				LeftKey:  compileValue(t, "s.id", l.Schema()),
				RightKey: compileValue(t, "d.id", r.Schema())}, []*TableScan{l, r}
		}},
		{name: "hashJoin", rows: 25, hash: 0xc637c83620f2288e, visited: []int{51, 26}, build: func() (Operator, []*TableScan) {
			l, r := srcScan(), dimScan()
			return &HashJoin{Left: l, Right: r,
				LeftKey:  compileValue(t, "s.id", l.Schema()),
				RightKey: compileValue(t, "d.id", r.Schema())}, []*TableScan{l, r}
		}},
		{name: "errorMidScan", rows: 0, hash: 0x9612b07b5ecb5a5, visited: []int{31}, err: "engine: integer division by zero", build: func() (Operator, []*TableScan) {
			s := srcScan()
			return project(s, "s.id / (s.id - 30)"), []*TableScan{s}
		}},
	}
}

// TestResetPlanDetachesEveryOperator is the plan cache's contract with the
// engine: a tree that ran a statement and was ResetPlan'd holds nothing of
// it — no statement controls, no snapshot, no reservation's worth of rows,
// no cursor over a child — and runs the next statement as a fresh build
// would. Per-execution state is whatever an operator keeps in unexported
// fields, so the audit is by reflection and covers fields added later.
func TestResetPlanDetachesEveryOperator(t *testing.T) {
	st, cases := operatorCases(t)
	for _, tc := range cases {
		op, _ := tc.build()
		var first string
		for run := 0; run < 2; run++ {
			res := govern.NewReservation(govern.NewBudget(1 << 30))
			snap := st.OpenSnapshot()
			SetExec(op, &Exec{res: res, batchCap: 7, snap: snap})
			rows, err := Drain(op, nil)
			ResetPlan(op)
			snap.Close()
			res.Release()
			got := fmt.Sprint(rows, err)
			if run == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s: second execution of the reset plan gave %s, first gave %s", tc.name, got, first)
			}
			assertDetached(t, tc.name, op)
		}
	}
	if pins := st.SnapshotPins(); pins != 0 {
		t.Errorf("%d snapshot pins left", pins)
	}
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// assertDetached fails for every field of the tree under op that could
// still reference a row, a snapshot or the statement controls. Plain
// counters and the scratch a plan keeps for its capacity (a filter's
// selection vector, a projection's input batch once emptied) may stay.
func assertDetached(t *testing.T, name string, op Operator) {
	t.Helper()
	v := reflect.ValueOf(op).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		where := fmt.Sprintf("%s: %s.%s", name, v.Type().Name(), sf.Name)
		switch {
		case sf.IsExported():
			if child, ok := f.Interface().(Operator); ok && child != nil {
				assertDetached(t, name, child)
			}
		case sf.Name == "sel":
		case sf.Name == "in":
			if f.IsNil() {
				continue
			}
			for rows, r := f.Elem().FieldByName("Rows"), 0; r < rows.Len(); r++ {
				if !rows.Index(r).IsNil() {
					t.Errorf("%s still holds a row", where)
					break
				}
			}
		default:
			switch f.Kind() {
			case reflect.Ptr, reflect.Slice, reflect.Map, reflect.Interface, reflect.Struct:
				if !f.IsZero() {
					t.Errorf("%s still set", where)
				}
			}
		}
	}
}
