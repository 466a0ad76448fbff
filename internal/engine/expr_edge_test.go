package engine

import (
	"fmt"
	"strings"
	"testing"

	"veridb/internal/record"
)

// nullRow is a tuple of all-NULL values matching testSchema.
func nullRow() record.Tuple {
	return record.Tuple{
		record.Null(record.TypeInt), record.Null(record.TypeFloat),
		record.Null(record.TypeText), record.Null(record.TypeBool),
	}
}

// TestExprNullPropagation pins SQL three-valued logic: comparisons against
// NULL are NULL (and a NULL predicate excludes the row), NULL short-circuits
// correctly through AND/OR, and IS NULL is the one comparison that sees
// NULL as a value.
func TestExprNullPropagation(t *testing.T) {
	n := nullRow()
	for _, src := range []string{"a = 6", "a <> 6", "a < 3", "a >= 3", "s = 'x'", "b > 0.5", "f = TRUE"} {
		c := compileStr(t, src, testSchema)
		v, err := c.Eval(n)
		if err != nil {
			t.Fatalf("%s over NULL row: %v", src, err)
		}
		if !v.Null {
			t.Errorf("%s over NULL row = %v, want NULL", src, v)
		}
		pass, err := c.EvalBool(n)
		if err != nil || pass {
			t.Errorf("%s over NULL row passes the filter (pass=%v err=%v)", src, pass, err)
		}
	}
	// AND/OR short-circuit only on a determined LEFT operand; a NULL left
	// makes the whole conjunction/disjunction NULL. Pin both directions.
	det := map[string]struct {
		want record.Value
	}{
		"FALSE AND a = 6": {record.Bool(false)}, // determined left short-circuits
		"TRUE OR a = 6":   {record.Bool(true)},
	}
	for src, tc := range det {
		v, err := compileStr(t, src, testSchema).Eval(n)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if v.Null || v.B != tc.want.B {
			t.Errorf("%s over NULL row = %v, want %v", src, v, tc.want)
		}
	}
	// NULL left operand propagates, whatever the right side says.
	for _, src := range []string{"a = 6 AND FALSE", "a = 6 OR TRUE", "a = 6 AND TRUE", "a = 6 OR FALSE"} {
		v, err := compileStr(t, src, testSchema).Eval(n)
		if err != nil || !v.Null {
			t.Errorf("%s over NULL row = %v err=%v, want NULL", src, v, err)
		}
	}
	// IS NULL treats NULL as a value, not a contagion.
	for src, want := range map[string]bool{"a IS NULL": true, "a IS NOT NULL": false} {
		v, err := compileStr(t, src, testSchema).Eval(n)
		if err != nil || v.Null || v.B != want {
			t.Errorf("%s over NULL row = %v err=%v, want %v", src, v, err, want)
		}
	}
	// NULL propagates through arithmetic into comparisons.
	if v, err := compileValue(t, "a + 1", testSchema).Eval(n); err != nil || !v.Null {
		t.Errorf("a + 1 over NULL row = %v err=%v, want NULL", v, err)
	}
}

// TestExprMixedTypeErrors pins the runtime errors for type-confused
// arithmetic: text operands, float modulo, and division by zero.
func TestExprMixedTypeErrors(t *testing.T) {
	r := row(6, 2.5, "x", true)
	cases := map[string]string{
		"s + 1":   "",                 // text has no float form
		"s * 2.0": "",                 // same, reversed promotion
		"a % 2.5": "integer operands", // modulo demands ints
		"a / 0":   "division by zero", // integer path
		"b / 0.0": "division by zero", // float path
		"a % 0":   "modulo by zero",
	}
	for src, frag := range cases {
		c := compileValue(t, src, testSchema)
		_, err := c.Eval(r)
		if err == nil {
			t.Errorf("%s evaluated cleanly, want error", src)
			continue
		}
		if frag != "" && !strings.Contains(err.Error(), frag) {
			t.Errorf("%s error %q does not mention %q", src, err, frag)
		}
	}
	// Int/float promotion is NOT an error.
	if v, err := compileValue(t, "a + b", testSchema).Eval(r); err != nil || v.F != 8.5 {
		t.Errorf("a + b = %v err=%v, want 8.5", v, err)
	}
}

// TestExprStringOrdering pins lexicographic TEXT comparison, including
// prefix ordering and case sensitivity (byte order, like SQL's default
// binary collation).
func TestExprStringOrdering(t *testing.T) {
	cases := []struct {
		s    string
		expr string
		want bool
	}{
		{"apple", "s < 'banana'", true},
		{"banana", "s < 'apple'", false},
		{"app", "s < 'apple'", true},       // prefix sorts first
		{"apple", "s <= 'apple'", true},    // equality on boundary
		{"Zebra", "s < 'apple'", true},     // 'Z' (0x5A) < 'a' (0x61)
		{"b", "s > 'a' AND s < 'c'", true}, // range bracketing
		{"", "s < 'a'", true},              // empty string sorts first
	}
	for _, tc := range cases {
		r := record.Tuple{record.Int(0), record.Float(0), record.Text(tc.s), record.Bool(false)}
		pass, err := compileStr(t, tc.expr, testSchema).EvalBool(r)
		if err != nil {
			t.Fatalf("%q %s: %v", tc.s, tc.expr, err)
		}
		if pass != tc.want {
			t.Errorf("%q %s = %v, want %v", tc.s, tc.expr, pass, tc.want)
		}
	}
}

// edgeRows is a small input mixing NULLs, negative numbers, empty strings
// and boundary values — the rows the oracle below pushes through filters
// and projections.
func edgeRows() []record.Tuple {
	rows := []record.Tuple{
		row(6, 2.5, "x", true),
		row(-3, -0.5, "", false),
		row(0, 0, "apple", true),
		nullRow(),
		row(7, 3.5, "Zebra", false),
		{record.Null(record.TypeInt), record.Float(1), record.Text("b"), record.Bool(true)},
		{record.Int(5), record.Null(record.TypeFloat), record.Null(record.TypeText), record.Bool(false)},
	}
	return rows
}

// TestExprCapacityInvariant runs Filter/Project pipelines over the edge
// rows at several batch capacities. The expected rows are what the deleted
// tuple-at-a-time executor produced: NULL handling and selection vectors
// must give the same rows, in the same order, at every capacity.
func TestExprCapacityInvariant(t *testing.T) {
	preds := []struct{ pred, want string }{
		{"a > 0", "[[6 x] [7 Zebra] [5 NULL]]"},
		{"a IS NULL OR s IS NULL", "[[NULL NULL] [NULL b] [5 NULL]]"},
		{"s < 'c' AND s IS NOT NULL", "[[-3 ] [0 apple] [7 Zebra] [NULL b]]"},
		{"a + 1 > 0 OR f", "[[6 x] [0 apple] [7 Zebra] [5 NULL]]"},
		{"b >= 0.0", "[[6 x] [0 apple] [7 Zebra] [NULL b]]"},
	}
	build := func(pred string) Operator {
		vals := &Values{Cols: testSchema, Rows: edgeRows()}
		f := &Filter{Child: vals, Pred: compileStr(t, pred, testSchema)}
		return &Project{
			Child: f,
			Exprs: []*Compiled{
				compileValue(t, "a", testSchema),
				compileValue(t, "s", testSchema),
			},
			Names: []string{"a", "s"},
		}
	}
	for _, tc := range preds {
		for _, size := range []int{1, 2, 3, 256} {
			got, err := drainAt(build(tc.pred), size)
			if err != nil {
				t.Fatalf("%s capacity=%d: %v", tc.pred, size, err)
			}
			if fmt.Sprint(got) != tc.want {
				t.Fatalf("%s capacity=%d: %v, want %s", tc.pred, size, got, tc.want)
			}
		}
	}
	// A mid-stream eval error aborts the drain at every capacity.
	for _, size := range []int{1, 2, 256} {
		vals := &Values{Cols: testSchema, Rows: edgeRows()}
		bad := &Filter{Child: vals, Pred: compileStr(t, "a / (a - 6) > 0", testSchema)}
		if _, err := drainAt(bad, size); err == nil {
			t.Fatalf("capacity=%d swallowed division by zero", size)
		}
	}
}
