package proto

import (
	"fmt"
	"strconv"
	"strings"
)

// TextField is one field of a text-format (prototxt) message. A field is
// either a scalar (number, enum identifier, boolean or quoted string) or a
// nested message.
type TextField struct {
	Name     string
	Scalar   string      // raw scalar token, valid when Msg is nil
	IsString bool        // the scalar was a quoted string literal
	Msg      TextMessage // nested message, nil for scalars
	IsMsg    bool
}

// TextMessage is an ordered list of text-format fields; repeated fields
// appear once per occurrence, as in the binary format.
type TextMessage []TextField

// --- Lexer ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct
)

type token struct {
	kind tokKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func (lx *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("prototxt:%d: %s", lx.line, fmt.Sprintf(format, args...))
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '#': // comment to end of line
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: lx.line}, nil

scan:
	c := lx.src[lx.pos]
	switch {
	case strings.ContainsRune("{}<>[]:,;", rune(c)):
		lx.pos++
		return token{kind: tokPunct, text: string(c), line: lx.line}, nil
	case c == '"' || c == '\'':
		return lx.scanString(c)
	case c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9'):
		return lx.scanNumber()
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentChar(lx.src[lx.pos]) {
			lx.pos++
		}
		return token{kind: tokIdent, text: lx.src[start:lx.pos], line: lx.line}, nil
	default:
		return token{}, lx.errf("unexpected character %q", c)
	}
}

func (lx *lexer) scanString(quote byte) (token, error) {
	lx.pos++ // opening quote
	start := lx.pos
	// A literal without escapes is returned as a substring of the source;
	// the builder starts from its prefix at the first backslash.
	for lx.pos < len(lx.src) && lx.src[lx.pos] != quote && lx.src[lx.pos] != '\\' && lx.src[lx.pos] != '\n' {
		lx.pos++
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == quote {
		lx.pos++
		return token{kind: tokString, text: lx.src[start : lx.pos-1], line: lx.line}, nil
	}
	var sb strings.Builder
	sb.WriteString(lx.src[start:lx.pos])
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch c {
		case quote:
			lx.pos++
			return token{kind: tokString, text: sb.String(), line: lx.line}, nil
		case '\\':
			lx.pos++
			if lx.pos >= len(lx.src) {
				return token{}, lx.errf("unterminated escape")
			}
			e := lx.src[lx.pos]
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\', '"', '\'':
				sb.WriteByte(e)
			default:
				return token{}, lx.errf("unsupported escape \\%c", e)
			}
			lx.pos++
		case '\n':
			return token{}, lx.errf("newline in string literal")
		default:
			sb.WriteByte(c)
			lx.pos++
		}
	}
	return token{}, lx.errf("unterminated string literal")
}

func (lx *lexer) scanNumber() (token, error) {
	start := lx.pos
	if lx.src[lx.pos] == '-' || lx.src[lx.pos] == '+' {
		lx.pos++
	}
	seen := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' {
			if (c == 'e' || c == 'E') && lx.pos+1 < len(lx.src) &&
				(lx.src[lx.pos+1] == '-' || lx.src[lx.pos+1] == '+') {
				lx.pos++ // consume exponent sign with the e
			}
			seen = true
			lx.pos++
		} else {
			break
		}
	}
	if !seen {
		return token{}, lx.errf("malformed number")
	}
	return token{kind: tokNumber, text: lx.src[start:lx.pos], line: lx.line}, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

// --- Parser ---

type textParser struct {
	lx        *lexer
	peeked    token // the next token, when hasPeeked
	hasPeeked bool
}

func (p *textParser) peek() (token, error) {
	if !p.hasPeeked {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.peeked, p.hasPeeked = t, true
	}
	return p.peeked, nil
}

func (p *textParser) advance() (token, error) {
	t, err := p.peek()
	p.hasPeeked = false
	return t, err
}

// ParseText parses a complete prototxt document into a TextMessage.
func ParseText(src string) (TextMessage, error) {
	p := &textParser{lx: &lexer{src: src, line: 1}}
	msg, err := p.parseFields(tokEOF, "")
	if err != nil {
		return nil, err
	}
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	if t.kind != tokEOF {
		return nil, fmt.Errorf("prototxt:%d: trailing content %q", t.line, t.text)
	}
	return msg, nil
}

// parseFields parses fields until the given terminator punctuation (or EOF).
func (p *textParser) parseFields(end tokKind, endText string) (TextMessage, error) {
	var msg TextMessage
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == end && (end == tokEOF || t.text == endText) {
			return msg, nil
		}
		if t.kind == tokPunct && (t.text == ";" || t.text == ",") {
			p.advance() // permissive separators between fields
			continue
		}
		if t.kind != tokIdent {
			return nil, fmt.Errorf("prototxt:%d: expected field name, got %q", t.line, t.text)
		}
		p.advance()
		fields, err := p.parseFieldValue(t.text)
		if err != nil {
			return nil, err
		}
		msg = append(msg, fields...)
	}
}

// parseFieldValue parses what follows a field name: an optional colon, then a
// scalar, a nested message ({...} or <...>), or a [v1, v2, ...] list that
// expands to repeated fields.
func (p *textParser) parseFieldValue(name string) (TextMessage, error) {
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	hadColon := false
	if t.kind == tokPunct && t.text == ":" {
		hadColon = true
		p.advance()
		t, err = p.peek()
		if err != nil {
			return nil, err
		}
	}
	switch {
	case t.kind == tokPunct && (t.text == "{" || t.text == "<"):
		open := t.text
		closeText := "}"
		if open == "<" {
			closeText = ">"
		}
		p.advance()
		sub, err := p.parseFields(tokPunct, closeText)
		if err != nil {
			return nil, err
		}
		if _, err := p.advance(); err != nil { // consume close
			return nil, err
		}
		return TextMessage{{Name: name, Msg: sub, IsMsg: true}}, nil
	case t.kind == tokPunct && t.text == "[":
		p.advance()
		var out TextMessage
		for {
			t, err := p.peek()
			if err != nil {
				return nil, err
			}
			if t.kind == tokPunct && t.text == "]" {
				p.advance()
				return out, nil
			}
			if t.kind == tokPunct && t.text == "," {
				p.advance()
				continue
			}
			sc, err := p.parseScalar(name)
			if err != nil {
				return nil, err
			}
			out = append(out, sc)
		}
	default:
		if !hadColon {
			return nil, fmt.Errorf("prototxt:%d: field %q: scalar value requires ':'", t.line, name)
		}
		sc, err := p.parseScalar(name)
		if err != nil {
			return nil, err
		}
		return TextMessage{sc}, nil
	}
}

func (p *textParser) parseScalar(name string) (TextField, error) {
	t, err := p.advance()
	if err != nil {
		return TextField{}, err
	}
	switch t.kind {
	case tokString:
		// Adjacent string literals concatenate, as in C. They join in one
		// builder: appending each to the last result would copy a run of n
		// literals n times over.
		val := t.text
		var joined strings.Builder
		for {
			nxt, err := p.peek()
			if err != nil {
				return TextField{}, err
			}
			if nxt.kind != tokString {
				break
			}
			p.advance()
			if joined.Len() == 0 {
				joined.WriteString(val)
			}
			joined.WriteString(nxt.text)
		}
		if joined.Len() > 0 {
			val = joined.String()
		}
		return TextField{Name: name, Scalar: val, IsString: true}, nil
	case tokNumber, tokIdent:
		return TextField{Name: name, Scalar: t.text}, nil
	default:
		return TextField{}, fmt.Errorf("prototxt:%d: field %q: expected scalar, got %q", t.line, name, t.text)
	}
}

// --- Accessors ---

// GetString returns the last string/identifier scalar value of field name.
func (m TextMessage) GetString(name string) (string, bool) {
	var v string
	found := false
	for _, f := range m {
		if f.Name == name && !f.IsMsg {
			v = f.Scalar
			found = true
		}
	}
	return v, found
}

// GetStrings returns every scalar value of a repeated field.
func (m TextMessage) GetStrings(name string) []string {
	var out []string
	for _, f := range m {
		if f.Name == name && !f.IsMsg {
			out = append(out, f.Scalar)
		}
	}
	return out
}

// GetInt parses the last scalar value of field name as an integer.
func (m TextMessage) GetInt(name string, def int) (int, error) {
	s, ok := m.GetString(name)
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("prototxt: field %q: %w", name, err)
	}
	return v, nil
}

// GetInts parses every occurrence of field name as integers.
func (m TextMessage) GetInts(name string) ([]int, error) {
	var out []int
	for _, s := range m.GetStrings(name) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("prototxt: field %q: %w", name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// GetFloat parses the last scalar value of field name as a float64.
func (m TextMessage) GetFloat(name string, def float64) (float64, error) {
	s, ok := m.GetString(name)
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("prototxt: field %q: %w", name, err)
	}
	return v, nil
}

// GetBool parses the last scalar value of field name as a bool
// (true/false/1/0, the proto text forms).
func (m TextMessage) GetBool(name string, def bool) (bool, error) {
	s, ok := m.GetString(name)
	if !ok {
		return def, nil
	}
	switch s {
	case "true", "True", "1":
		return true, nil
	case "false", "False", "0":
		return false, nil
	}
	return false, fmt.Errorf("prototxt: field %q: invalid bool %q", name, s)
}

// GetMessages returns every nested-message occurrence of field name.
func (m TextMessage) GetMessages(name string) []TextMessage {
	var out []TextMessage
	for _, f := range m {
		if f.Name == name && f.IsMsg {
			out = append(out, f.Msg)
		}
	}
	return out
}

// GetMessage returns the last nested-message occurrence of field name.
func (m TextMessage) GetMessage(name string) (TextMessage, bool) {
	var v TextMessage
	found := false
	for _, f := range m {
		if f.Name == name && f.IsMsg {
			v = f.Msg
			found = true
		}
	}
	return v, found
}

// Has reports whether field name occurs at least once.
func (m TextMessage) Has(name string) bool {
	for _, f := range m {
		if f.Name == name {
			return true
		}
	}
	return false
}

// --- Printer ---

// PrintText renders a TextMessage in canonical prototxt form.
func PrintText(m TextMessage) string {
	var sb strings.Builder
	printText(&sb, m, 0)
	return sb.String()
}

func printText(sb *strings.Builder, m TextMessage, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, f := range m {
		if f.IsMsg {
			sb.WriteString(indent)
			sb.WriteString(f.Name)
			sb.WriteString(" {\n")
			printText(sb, f.Msg, depth+1)
			sb.WriteString(indent)
			sb.WriteString("}\n")
		} else {
			sb.WriteString(indent)
			sb.WriteString(f.Name)
			sb.WriteString(": ")
			if f.IsString {
				sb.WriteString(strconv.Quote(f.Scalar))
			} else {
				sb.WriteString(f.Scalar)
			}
			sb.WriteString("\n")
		}
	}
}
