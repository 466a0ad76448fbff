package sql_test

import (
	"math"
	"testing"

	"veridb/internal/engine"
	"veridb/internal/record"
	"veridb/internal/sql"
)

// identical reports whether two values are the same value: same type and
// NULLness, and for floats the same bits, any NaN matching any other.
func identical(a, b record.Value) bool {
	fa, fb := a.F, b.F
	a.F, b.F = 0, 0
	return a == b && (math.Float64bits(fa) == math.Float64bits(fb) || math.IsNaN(fa) && math.IsNaN(fb))
}

// eval is the value of a constant expression, as the engine computes it.
func eval(e sql.Expr) (record.Value, error) {
	c, err := engine.Compile(e, engine.Schema{})
	if err != nil {
		return record.Value{}, err
	}
	return c.Eval(nil)
}

// TestFormatValue: every value's text parses and evaluates back to exactly
// that value — the ones no literal spells (−2⁶³, ±Inf, NaN) as constant
// expressions — and every other value keeps its literal text.
func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    record.Value
		want string // "" for an expression checked by value only
	}{
		{record.Int(math.MinInt64), "(-9223372036854775807 - 1)"},
		{record.Int(math.MaxInt64), "9223372036854775807"},
		{record.Int(-5), "-5"},
		{record.Int(0), "0"},
		{record.Float(math.Inf(1)), ""},
		{record.Float(math.Inf(-1)), ""},
		{record.Float(math.NaN()), ""},
		{record.Float(math.Copysign(0, -1)), "-0.0"},
		{record.Float(0.0000001), "0.0000001"},
		{record.Float(2), "2.0"},
		{record.Float(1e21), "1000000000000000000000.0"},
		{record.Float(-4.5), "-4.5"},
		{record.Float(math.MaxFloat64), ""},
		{record.Float(math.SmallestNonzeroFloat64), ""},
		{record.Text("it's"), "'it''s'"},
		{record.Text("''"), "''''''"},
		{record.Text(""), "''"},
		{record.Bool(true), "TRUE"},
		{record.Bool(false), "FALSE"},
		{record.Null(record.TypeInt), "NULL"},
	} {
		text := sql.FormatValue(tc.v)
		if tc.want != "" && text != tc.want {
			t.Errorf("FormatValue(%v) = %q, want %q", tc.v, text, tc.want)
		}
		st, err := sql.Parse("SELECT " + text + " FROM t")
		if err != nil {
			t.Errorf("FormatValue(%v) = %q does not parse: %v", tc.v, text, err)
			continue
		}
		got, err := eval(st.(*sql.Select).Items[0].Expr)
		if err != nil || !identical(got, tc.v) {
			t.Errorf("FormatValue(%v) = %q evaluates to %v (%v)", tc.v, text, got, err)
		}
	}
}
