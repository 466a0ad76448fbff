package sql

import (
	"fmt"
	"strings"
)

// Lexer turns SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer builds a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Tokenize lexes the whole input.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	// Skip whitespace and -- comments.
	for {
		for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
			l.pos++
		}
		if l.peek() == '-' && l.peek2() == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isLetter(c):
		for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if kw, ok := keyword(word); ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isDigit(ch) {
				l.pos++
				continue
			}
			if ch == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			break
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'':
		// The literal is a slice of the source unless it holds an escaped
		// quote ('') to undo.
		escaped := false
		for i := start + 1; i < len(l.src); i++ {
			if l.src[i] != '\'' {
				continue
			}
			if i+1 < len(l.src) && l.src[i+1] == '\'' {
				escaped = true
				i++
				continue
			}
			l.pos = i + 1
			text := l.src[start+1 : i]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			return Token{Kind: TokString, Text: text, Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
	default:
		// Two-character operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<=", ">=", "<>", "!=":
			l.pos += 2
			return Token{Kind: TokSymbol, Text: two, Pos: start}, nil
		}
		switch c {
		case '=', '<', '>', '(', ')', ',', '*', '+', '-', '/', '.', ';', '%', '?':
			l.pos++
			return Token{Kind: TokSymbol, Text: l.src[start:l.pos], Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, l.pos)
	}
}
