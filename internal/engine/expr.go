// Package engine implements VeriDB's query execution engine: volcano-style
// relational operators (paper §5.4) whose leaf nodes are the verified
// access methods of the storage layer. The engine conceptually runs inside
// the SGX enclave, colocated with the storage interfaces (§3.3), so an
// operator's output is trusted whenever its inputs are; all integrity
// checking concentrates in the scan leaves.
package engine

import (
	"fmt"
	"strings"

	"veridb/internal/record"
	"veridb/internal/sql"
)

// Col describes one column of an operator's output schema.
type Col struct {
	Table string // binding alias; empty for computed columns
	Name  string
	Type  record.Type
}

// Schema is an ordered operator output description.
type Schema []Col

// Resolve finds the position of a column reference; table may be empty for
// unqualified references, which must then be unambiguous.
func (s Schema) Resolve(table, name string) (int, error) {
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found != -1 {
			return 0, fmt.Errorf("engine: ambiguous column %q", name)
		}
		found = i
	}
	if found == -1 {
		ref := name
		if table != "" {
			ref = table + "." + name
		}
		return 0, fmt.Errorf("engine: unknown column %q", ref)
	}
	return found, nil
}

// Compiled is an executable expression bound to a schema. It reads every
// literal through its AST node at evaluation time, so writing a node's Val
// rebinds the compiled form (the plan cache's bind step) with nothing to
// recompile; only a literal's type is fixed at compile time.
type Compiled struct {
	eval func(record.Tuple) (record.Value, error)
	typ  record.Type
	expr sql.Expr
}

// Type returns the expression's static result type.
func (c *Compiled) Type() record.Type { return c.typ }

// Eval evaluates against a tuple of the bound schema.
func (c *Compiled) Eval(t record.Tuple) (record.Value, error) { return c.eval(t) }

// String renders the source form from the expression as it is now: the
// text is wanted only by an error or by Describe, and after a rebind it
// must quote the literals the statement ran with.
func (c *Compiled) String() string { return c.expr.String() }

// EvalBool evaluates a predicate; NULL results are false (two-valued
// semantics, documented in the package README).
func (c *Compiled) EvalBool(t record.Tuple) (bool, error) {
	v, err := c.eval(t)
	if err != nil {
		return false, err
	}
	if v.Null {
		return false, nil
	}
	if v.Type != record.TypeBool {
		return false, fmt.Errorf("engine: predicate %s evaluated to %s, not BOOL", c, v.Type)
	}
	return v.B, nil
}

// Compile binds a SQL expression to a schema. Aggregate calls are rejected;
// the planner routes them through the aggregation operator instead.
func Compile(e sql.Expr, s Schema) (*Compiled, error) {
	ev, typ, err := compile(e, s)
	if err != nil {
		return nil, err
	}
	return &Compiled{eval: ev, typ: typ, expr: e}, nil
}

type evalFn func(record.Tuple) (record.Value, error)

func compile(e sql.Expr, s Schema) (evalFn, record.Type, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return func(record.Tuple) (record.Value, error) { return x.Val, nil }, x.Val.Type, nil
	case *sql.ColumnRef:
		i, err := s.Resolve(x.Table, x.Column)
		if err != nil {
			return nil, 0, err
		}
		typ := s[i].Type
		return func(t record.Tuple) (record.Value, error) {
			if i >= len(t) {
				return record.Value{}, fmt.Errorf("engine: tuple too short for column %d", i)
			}
			return t[i], nil
		}, typ, nil
	case *sql.UnaryExpr:
		inner, typ, err := compile(x.E, s)
		if err != nil {
			return nil, 0, err
		}
		switch x.Op {
		case "NOT":
			return func(t record.Tuple) (record.Value, error) {
				v, err := inner(t)
				if err != nil {
					return record.Value{}, err
				}
				if v.Null {
					return record.Null(record.TypeBool), nil
				}
				if v.Type != record.TypeBool {
					return record.Value{}, fmt.Errorf("engine: NOT applied to %s", v.Type)
				}
				return record.Bool(!v.B), nil
			}, record.TypeBool, nil
		case "-":
			return func(t record.Tuple) (record.Value, error) {
				v, err := inner(t)
				if err != nil {
					return record.Value{}, err
				}
				if v.Null {
					return v, nil
				}
				switch v.Type {
				case record.TypeInt:
					return record.Int(-v.I), nil
				case record.TypeFloat:
					return record.Float(-v.F), nil
				default:
					return record.Value{}, fmt.Errorf("engine: negating %s", v.Type)
				}
			}, typ, nil
		default:
			return nil, 0, fmt.Errorf("engine: unknown unary op %q", x.Op)
		}
	case *sql.BinaryExpr:
		return compileBinary(x, s)
	case *sql.BetweenExpr:
		lo := &sql.BinaryExpr{Op: ">=", L: x.E, R: x.Lo}
		hi := &sql.BinaryExpr{Op: "<=", L: x.E, R: x.Hi}
		var both sql.Expr = &sql.BinaryExpr{Op: "AND", L: lo, R: hi}
		if x.Negated {
			both = &sql.UnaryExpr{Op: "NOT", E: both}
		}
		return compile(both, s)
	case *sql.InExpr:
		var ors sql.Expr
		for _, item := range x.List {
			eq := &sql.BinaryExpr{Op: "=", L: x.E, R: item}
			if ors == nil {
				ors = eq
			} else {
				ors = &sql.BinaryExpr{Op: "OR", L: ors, R: eq}
			}
		}
		if ors == nil {
			ors = &sql.Literal{Val: record.Bool(false)}
		}
		if x.Negated {
			ors = &sql.UnaryExpr{Op: "NOT", E: ors}
		}
		return compile(ors, s)
	case *sql.IsNullExpr:
		inner, _, err := compile(x.E, s)
		if err != nil {
			return nil, 0, err
		}
		neg := x.Negated
		return func(t record.Tuple) (record.Value, error) {
			v, err := inner(t)
			if err != nil {
				return record.Value{}, err
			}
			return record.Bool(v.Null != neg), nil
		}, record.TypeBool, nil
	case *sql.FuncCall:
		return nil, 0, fmt.Errorf("engine: aggregate %s outside an aggregation context", x.Name)
	default:
		return nil, 0, fmt.Errorf("engine: unsupported expression %T", e)
	}
}

func compileBinary(x *sql.BinaryExpr, s Schema) (evalFn, record.Type, error) {
	l, lt, err := compile(x.L, s)
	if err != nil {
		return nil, 0, err
	}
	r, rt, err := compile(x.R, s)
	if err != nil {
		return nil, 0, err
	}
	switch x.Op {
	case "AND", "OR":
		and := x.Op == "AND"
		return func(t record.Tuple) (record.Value, error) {
			lv, err := l(t)
			if err != nil {
				return record.Value{}, err
			}
			if !lv.Null && lv.Type != record.TypeBool {
				return record.Value{}, fmt.Errorf("engine: %s operand is %s", x.Op, lv.Type)
			}
			// Short circuit on the determining value.
			if !lv.Null {
				if and && !lv.B {
					return record.Bool(false), nil
				}
				if !and && lv.B {
					return record.Bool(true), nil
				}
			}
			rv, err := r(t)
			if err != nil {
				return record.Value{}, err
			}
			if !rv.Null && rv.Type != record.TypeBool {
				return record.Value{}, fmt.Errorf("engine: %s operand is %s", x.Op, rv.Type)
			}
			if lv.Null || rv.Null {
				return record.Null(record.TypeBool), nil
			}
			if and {
				return record.Bool(lv.B && rv.B), nil
			}
			return record.Bool(lv.B || rv.B), nil
		}, record.TypeBool, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := x.Op
		return func(t record.Tuple) (record.Value, error) {
			lv, err := l(t)
			if err != nil {
				return record.Value{}, err
			}
			rv, err := r(t)
			if err != nil {
				return record.Value{}, err
			}
			if lv.Null || rv.Null {
				return record.Null(record.TypeBool), nil
			}
			c, err := lv.Compare(rv)
			if err != nil {
				return record.Value{}, fmt.Errorf("engine: %s: %w", op, err)
			}
			var b bool
			switch op {
			case "=":
				b = c == 0
			case "<>":
				b = c != 0
			case "<":
				b = c < 0
			case "<=":
				b = c <= 0
			case ">":
				b = c > 0
			case ">=":
				b = c >= 0
			}
			return record.Bool(b), nil
		}, record.TypeBool, nil
	case "+", "-", "*", "/", "%":
		op := x.Op
		outType := record.TypeInt
		if lt == record.TypeFloat || rt == record.TypeFloat {
			outType = record.TypeFloat
		}
		return func(t record.Tuple) (record.Value, error) {
			lv, err := l(t)
			if err != nil {
				return record.Value{}, err
			}
			rv, err := r(t)
			if err != nil {
				return record.Value{}, err
			}
			if lv.Null || rv.Null {
				return record.Null(outType), nil
			}
			return arith(op, lv, rv)
		}, outType, nil
	default:
		return nil, 0, fmt.Errorf("engine: unknown binary op %q", x.Op)
	}
}

func arith(op string, a, b record.Value) (record.Value, error) {
	if a.Type == record.TypeInt && b.Type == record.TypeInt {
		switch op {
		case "+":
			return record.Int(a.I + b.I), nil
		case "-":
			return record.Int(a.I - b.I), nil
		case "*":
			return record.Int(a.I * b.I), nil
		case "/":
			if b.I == 0 {
				return record.Value{}, fmt.Errorf("engine: integer division by zero")
			}
			return record.Int(a.I / b.I), nil
		case "%":
			if b.I == 0 {
				return record.Value{}, fmt.Errorf("engine: modulo by zero")
			}
			return record.Int(a.I % b.I), nil
		}
	}
	af, err := a.AsFloat()
	if err != nil {
		return record.Value{}, fmt.Errorf("engine: %s: %w", op, err)
	}
	bf, err := b.AsFloat()
	if err != nil {
		return record.Value{}, fmt.Errorf("engine: %s: %w", op, err)
	}
	switch op {
	case "+":
		return record.Float(af + bf), nil
	case "-":
		return record.Float(af - bf), nil
	case "*":
		return record.Float(af * bf), nil
	case "/":
		if bf == 0 {
			return record.Value{}, fmt.Errorf("engine: division by zero")
		}
		return record.Float(af / bf), nil
	case "%":
		return record.Value{}, fmt.Errorf("engine: %% needs integer operands")
	}
	return record.Value{}, fmt.Errorf("engine: bad arithmetic op %q", op)
}

// groupKey encodes a tuple of values into a comparable map key.
func groupKey(vals []record.Value) string {
	var sb strings.Builder
	for _, v := range vals {
		if v.Null {
			sb.WriteString("N;")
			continue
		}
		k, err := record.KeyOf(v)
		if err != nil {
			sb.WriteString("E;")
			continue
		}
		b := k.Encode()
		sb.WriteByte(byte(len(b)))
		sb.Write(b)
		sb.WriteByte(';')
	}
	return sb.String()
}
