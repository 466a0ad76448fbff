package sql

// The shape pass the plan cache keys statements on, the text form of a
// value, and the expansion of an EXECUTE into its PREPARE template's
// tokens with the arguments in place — the one form in which an EXECUTE
// reaches the plan cache, the parser and the WAL.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"veridb/internal/record"
)

// FormatValue renders one value as SQL text that Parse and expression
// evaluation give back exactly: decimal floats (never exponent notation,
// and integral ones with a ".0" so they stay FLOAT), doubled quotes in
// text, NULL/TRUE/FALSE keywords. The values no literal spells — the
// lexer's numbers are unsigned and have no exponent — are constant
// expressions: −2⁶³ is (-9223372036854775807 - 1), and ±Inf and NaN are
// products of the largest float.
func FormatValue(v record.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case record.TypeInt:
		if v.I == math.MinInt64 {
			return "(-9223372036854775807 - 1)"
		}
		return strconv.FormatInt(v.I, 10)
	case record.TypeFloat:
		switch {
		case math.IsInf(v.F, 1):
			return "(" + maxFloat + " * 10.0)"
		case math.IsInf(v.F, -1):
			return "(-" + maxFloat + " * 10.0)"
		case math.IsNaN(v.F):
			return "(" + maxFloat + " * 10.0 * 0.0)"
		}
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0" // keep the float type through re-parsing
		}
		return s
	case record.TypeText:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case record.TypeBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.String()
	}
}

// maxFloat is math.MaxFloat64 as a FLOAT literal, all 309 integer digits
// of it: ten times it overflows to +Inf.
var maxFloat = strconv.FormatFloat(math.MaxFloat64, 'f', 1, 64)

// Normalize canonicalises statement text: lexes and rejoins with single
// spaces, so case of keywords, whitespace, comments and one trailing
// semicolon do not tell two statements apart. Literals stay in the text;
// the plan cache keys on Shape, which lifts them out.
func Normalize(src string) (string, error) {
	var s shaper
	return s.lex(src)
}

// Shape is the one lexer pass a statement pays before the plan cache: it
// returns the statement's shape key — Normalize's text with every number
// literal replaced by the type tag ?i or ?f and every string literal by ?s
// — and the lifted values in text order. What the parser consumes
// structurally stays in the key: NULL, TRUE, FALSE and the count after
// LIMIT. Two statements with one key parse to ASTs that differ only in the
// Val of their ParseSlots nodes, slot for slot of one type, so a plan
// compiled for one runs the other once the values are written into the
// slots — provided the plan reads literals through their nodes and is
// used by one statement at a time.
func Shape(src string) (key string, lits []record.Value, err error) {
	s := shaper{lift: true}
	if key, err = s.lex(src); err != nil {
		return "", nil, err
	}
	return key, s.lits, nil
}

// shaper builds a shape key, or Normalize's text when it does not lift,
// one token at a time.
type shaper struct {
	lift bool
	sb   strings.Builder
	lits []record.Value
	// A semicolon is written only once a token follows it, which leaves
	// the one trailing terminator Parse accepts out of the key and keeps
	// every other one in: text Parse rejects must not share a key with
	// text it accepts.
	semi, afterLimit bool
}

// lex runs the shaper over the tokens of src.
func (s *shaper) lex(src string) (string, error) {
	l := NewLexer(src)
	s.sb.Grow(len(src))
	for {
		t, err := l.Next()
		if err != nil {
			return "", err
		}
		if t.Kind == TokEOF {
			return s.sb.String(), nil
		}
		if err := s.add(t); err != nil {
			return "", err
		}
	}
}

// tokens runs the shaper over already-lexed tokens, up to their EOF.
func (s *shaper) tokens(toks []Token) (string, error) {
	for _, t := range toks {
		if t.Kind == TokEOF {
			break
		}
		if err := s.add(t); err != nil {
			return "", err
		}
	}
	return s.sb.String(), nil
}

func (s *shaper) add(t Token) error {
	if s.semi {
		s.sb.WriteString(" ;")
		s.semi = false
	}
	if t.Kind == TokSymbol && t.Text == ";" {
		s.semi = true
		return nil
	}
	if s.sb.Len() > 0 {
		s.sb.WriteByte(' ')
	}
	switch {
	case s.lift && t.Kind == TokNumber && !s.afterLimit:
		v, err := numberValue(t.Text)
		if err != nil {
			return err
		}
		s.liftValue(v)
	case s.lift && t.Kind == TokString:
		s.liftValue(record.Text(t.Text))
	case s.lift && t.Kind == TokValue && slotValue(*t.Val):
		s.liftValue(*t.Val)
	case t.Kind == TokValue:
		s.sb.WriteString(FormatValue(*t.Val))
	case t.Kind == TokString:
		s.sb.WriteString(FormatValue(record.Text(t.Text)))
	default:
		s.sb.WriteString(t.Text)
	}
	s.afterLimit = t.Kind == TokKeyword && t.Text == "LIMIT"
	return nil
}

// liftValue writes v's type tag into the key and appends v to the lifted
// values.
func (s *shaper) liftValue(v record.Value) {
	s.lits = append(s.lits, v)
	switch v.Type {
	case record.TypeFloat:
		s.sb.WriteString("?f")
	case record.TypeText:
		s.sb.WriteString("?s")
	default:
		s.sb.WriteString("?i")
	}
}

// slotValue reports whether a TokValue token stands for a literal Shape
// lifts and the parser makes a bind slot — a non-NULL INT, FLOAT or TEXT —
// rather than for a NULL, TRUE or FALSE keyword.
func slotValue(v record.Value) bool {
	return !v.Null && v.Type != record.TypeBool
}

// Expansion is an EXECUTE resolved against its PREPARE template: the
// template's tokens with each ? placeholder replaced by a TokValue token
// holding its argument, then EOF. It is the statement the client would
// have sent with each argument written as a literal, except that an
// argument is one literal node whatever its sign, so WHERE k = ? with −5
// is a key lookup rather than a negation.
type Expansion []Token

// Expand binds args to the template's placeholders in text order; the
// expansion's value tokens point into args.
func (p *Prepare) Expand(args []record.Value) (Expansion, error) {
	if len(args) != p.NumParams {
		return nil, fmt.Errorf("sql: prepared statement %q wants %d arguments, got %d", p.Name, p.NumParams, len(args))
	}
	x := make(Expansion, 0, len(p.Tokens)+1)
	i := 0
	for _, t := range p.Tokens {
		if t.Kind == TokSymbol && t.Text == "?" {
			t = Token{Kind: TokValue, Val: &args[i], Pos: t.Pos}
			i++
		}
		x = append(x, t)
	}
	return append(x, Token{Kind: TokEOF}), nil
}

// Shape is sql.Shape of the expansion. An INT, FLOAT or TEXT argument is
// lifted as ?i, ?f or ?s and NULL, TRUE and FALSE stay keywords, so an
// EXECUTE shares its key with the statement written with its non-negative
// arguments as literals.
func (x Expansion) Shape() (key string, lits []record.Value, err error) {
	s := shaper{lift: true}
	if key, err = s.tokens(x); err != nil {
		return "", nil, err
	}
	return key, s.lits, nil
}

// ParseSlots is sql.ParseSlots of the expansion: an INT, FLOAT or TEXT
// argument is a bind slot, like the literal Shape lifts for it.
func (x Expansion) ParseSlots() (Statement, []*Literal, error) {
	return parseTokens(x)
}

// String is the expansion as SQL text with each argument in FormatValue's
// form: what the WAL logs for an EXECUTEd write, so replay needs no
// prepared-statement registry.
func (x Expansion) String() string {
	var s shaper
	text, _ := s.tokens(x) // only lifting parses numbers, so never fails
	return text
}
