// Package record defines VeriDB's tuple model: typed values, table
// schemas, and the extended storage record of Definition 4.2 / 5.2 in which
// every row carries, for each indexed column, its key and the next-smallest
// key (the ⟨key, nKey⟩ chain links that make single-record presence and
// absence proofs possible).
package record

import (
	"fmt"
	"math"
	"strconv"
)

// Type enumerates VeriDB's column types.
type Type int

const (
	// TypeInt is a 64-bit signed integer.
	TypeInt Type = iota
	// TypeFloat is a 64-bit IEEE float.
	TypeFloat
	// TypeText is a byte string.
	TypeText
	// TypeBool is a boolean.
	TypeBool
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is one typed SQL value. The zero value is a NULL INT.
type Value struct {
	Type Type
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// Int builds an INT value.
func Int(v int64) Value { return Value{Type: TypeInt, I: v} }

// Float builds a FLOAT value.
func Float(v float64) Value { return Value{Type: TypeFloat, F: v} }

// Text builds a TEXT value.
func Text(s string) Value { return Value{Type: TypeText, S: s} }

// Bool builds a BOOL value.
func Bool(b bool) Value { return Value{Type: TypeBool, B: b} }

// Null builds a NULL of the given type.
func Null(t Type) Value { return Value{Type: t, Null: true} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Null }

// AsFloat widens numeric values to float64 for mixed-type arithmetic.
func (v Value) AsFloat() (float64, error) {
	switch v.Type {
	case TypeInt:
		return float64(v.I), nil
	case TypeFloat:
		return v.F, nil
	default:
		return 0, fmt.Errorf("record: %s value is not numeric", v.Type)
	}
}

// Compare orders two values: -1, 0, +1. NULLs sort before all non-NULLs
// (and equal to each other), matching index ordering semantics. Numeric
// types compare across INT/FLOAT; otherwise types must match.
func (v Value) Compare(o Value) (int, error) {
	if v.Null || o.Null {
		switch {
		case v.Null && o.Null:
			return 0, nil
		case v.Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if (v.Type == TypeInt || v.Type == TypeFloat) && (o.Type == TypeInt || o.Type == TypeFloat) {
		if v.Type == TypeInt && o.Type == TypeInt {
			switch {
			case v.I < o.I:
				return -1, nil
			case v.I > o.I:
				return 1, nil
			default:
				return 0, nil
			}
		}
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.Type != o.Type {
		return 0, fmt.Errorf("record: cannot compare %s with %s", v.Type, o.Type)
	}
	switch v.Type {
	case TypeText:
		switch {
		case v.S < o.S:
			return -1, nil
		case v.S > o.S:
			return 1, nil
		default:
			return 0, nil
		}
	case TypeBool:
		switch {
		case !v.B && o.B:
			return -1, nil
		case v.B && !o.B:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("record: uncomparable type %s", v.Type)
	}
}

// Equal reports whether two values are equal under Compare semantics, with
// NULL equal only to NULL.
func (v Value) Equal(o Value) bool {
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// String renders the value for display.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(%d)", int(v.Type))
	}
}

// Tuple is one row of values.
type Tuple []Value

// Clone deep-copies a tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered set of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Len returns the column count.
func (s *Schema) Len() int { return len(s.Columns) }

// Validate checks a tuple against the schema (arity and non-null types).
func (s *Schema) Validate(t Tuple) error {
	if len(t) != len(s.Columns) {
		return fmt.Errorf("record: tuple has %d values, schema %q needs %d",
			len(t), s.names(), len(s.Columns))
	}
	for i, v := range t {
		if v.Null {
			continue
		}
		want := s.Columns[i].Type
		if v.Type == want {
			continue
		}
		// INT literals are acceptable for FLOAT columns.
		if want == TypeFloat && v.Type == TypeInt {
			continue
		}
		return fmt.Errorf("record: column %q wants %s, got %s", s.Columns[i].Name, want, v.Type)
	}
	return nil
}

// Coerce normalises a validated tuple to the schema's types (widening INT
// literals stored into FLOAT columns, typing NULLs). It returns t itself
// when t is already normal and a normalised copy otherwise; t is never
// changed.
func (s *Schema) Coerce(t Tuple) Tuple {
	var out Tuple
	for i, v := range t {
		want := s.Columns[i].Type
		switch {
		case v.Null && v.Type != want:
			v.Type = want
		case !v.Null && want == TypeFloat && v.Type == TypeInt:
			v = Float(float64(v.I))
		default:
			continue
		}
		if out == nil {
			out = t.Clone()
		}
		out[i] = v
	}
	if out == nil {
		return t
	}
	return out
}

func (s *Schema) names() []string {
	n := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		n[i] = c.Name
	}
	return n
}

// floatOrderBits maps a float64 onto a uint64 whose unsigned order matches
// the float order (NaNs sort above +Inf).
func floatOrderBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b // negative: flip everything
	}
	return b | 1<<63 // positive: set the sign bit
}
