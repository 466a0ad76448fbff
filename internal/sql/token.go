// Package sql implements VeriDB's SQL front end: a lexer, an AST, and a
// recursive-descent parser for the SPJA dialect the paper targets (§3.2:
// "we focus on SPJA queries") plus the DDL/DML needed to run them —
// CREATE TABLE, INSERT, UPDATE, DELETE and SELECT with joins, grouping,
// ordering and limits. Compilation happens inside the enclave (§3.3), so
// the parser is deliberately dependency-free.
package sql

import (
	"fmt"
	"strings"

	"veridb/internal/record"
)

// TokenKind classifies lexer output.
type TokenKind int

const (
	// TokEOF ends the stream.
	TokEOF TokenKind = iota
	// TokIdent is an identifier or unreserved keyword.
	TokIdent
	// TokKeyword is a reserved word, normalised to upper case.
	TokKeyword
	// TokNumber is an integer or decimal literal.
	TokNumber
	// TokString is a single-quoted string literal.
	TokString
	// TokSymbol is an operator or punctuation token.
	TokSymbol
	// TokValue is an EXECUTE argument in place of its template's ?
	// placeholder (Prepare.Expand); the lexer never produces one.
	TokValue
)

// Token is one lexeme.
type Token struct {
	Kind TokenKind
	Text string        // keywords upper-cased; idents as written; strings unquoted
	Pos  int           // byte offset in the input
	Val  *record.Value // a TokValue's value, nil for every other kind
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	case TokValue:
		return FormatValue(*t.Val)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keyword returns the reserved word an identifier-shaped lexeme is, in
// upper case. It allocates nothing for one already there: the lexer is the
// one pass every statement pays, plan-cache hits included.
func keyword(word string) (string, bool) {
	var buf [len("DEALLOCATE")]byte // the longest keyword
	if len(word) > len(buf) {
		return "", false
	}
	upper := buf[:len(word)]
	for i := range upper {
		if upper[i] = word[i]; 'a' <= word[i] && word[i] <= 'z' {
			upper[i] -= 'a' - 'A'
		}
	}
	if !keywords[string(upper)] {
		return "", false
	}
	return strings.ToUpper(word), true
}

// keywords are the reserved words of the dialect.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "ASC": true, "DESC": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "PRIMARY": true, "KEY": true,
	"INDEX": true, "AND": true, "OR": true, "NOT": true, "NULL": true,
	"TRUE": true, "FALSE": true, "AS": true, "JOIN": true, "INNER": true,
	"ON": true, "INT": true, "FLOAT": true, "TEXT": true, "BOOL": true,
	"BETWEEN": true, "IN": true, "DISTINCT": true, "DROP": true, "IS": true,
	"EXPLAIN": true, "PREPARE": true, "EXECUTE": true, "DEALLOCATE": true,
	"BEGIN": true, "COMMIT": true, "SNAPSHOT": true,
}
