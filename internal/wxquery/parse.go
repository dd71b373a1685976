package wxquery

import (
	"fmt"
	"strings"

	"streamshare/internal/decimal"
	"streamshare/internal/predicate"
	"streamshare/internal/xmlstream"
)

// ParseError reports a syntax error with its byte offset in the query text.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("wxquery: offset %d: %s", e.Offset, e.Msg)
}

// Parse parses a WXQuery subscription. The outermost expression must be an
// element constructor (§2).
func Parse(src string) (*Query, error) {
	p := &parser{src: src}
	p.skipSpace()
	root, err := p.parseElemCtor()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errf("unexpected trailing input %q", p.rest(20))
	}
	return &Query{Root: root, Source: src}, nil
}

// MustParse parses a query known to be valid; it panics on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) rest(n int) string {
	r := p.src[p.pos:]
	if len(r) > n {
		r = r[:n]
	}
	return r
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

// lit consumes the exact literal if present.
func (p *parser) lit(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

// keyword consumes an identifier-like literal not followed by an identifier
// character, so "counter" is not the keyword "count".
func (p *parser) keyword(s string) bool {
	if !strings.HasPrefix(p.src[p.pos:], s) {
		return false
	}
	end := p.pos + len(s)
	if end < len(p.src) && isIdent(p.src[end]) {
		return false
	}
	p.pos = end
	return true
}

func isIdent(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.' || c == ':'
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// ident consumes an XML-style name.
func (p *parser) ident() (string, error) {
	if p.eof() || !isNameStart(p.peek()) {
		return "", p.errf("expected name, found %q", p.rest(10))
	}
	start := p.pos
	for p.pos < len(p.src) && isIdent(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

// number consumes a decimal constant, optionally signed.
func (p *parser) number() (decimal.D, error) {
	start := p.pos
	if p.peek() == '-' || p.peek() == '+' {
		p.pos++
	}
	digits := false
	for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
		if p.src[p.pos] != '.' {
			digits = true
		}
		p.pos++
	}
	if !digits {
		p.pos = start
		return decimal.D{}, p.errf("expected number, found %q", p.rest(10))
	}
	d, err := decimal.Parse(p.src[start:p.pos])
	if err != nil {
		return decimal.D{}, p.errf("bad number %q: %v", p.src[start:p.pos], err)
	}
	return d, nil
}

func (p *parser) expect(s string) error {
	if !p.lit(s) {
		return p.errf("expected %q, found %q", s, p.rest(10))
	}
	return nil
}

// parseElemCtor parses <t/> or <t> content </t>.
func (p *parser) parseElemCtor() (*ElemCtor, error) {
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	tag, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.lit("/>") {
		return &ElemCtor{Tag: tag}, nil
	}
	if err := p.expect(">"); err != nil {
		return nil, err
	}
	e := &ElemCtor{Tag: tag}
	for {
		p.skipSpace()
		switch {
		case p.eof():
			return nil, p.errf("unclosed element <%s>", tag)
		case strings.HasPrefix(p.src[p.pos:], "</"):
			p.pos += 2
			end, err := p.ident()
			if err != nil {
				return nil, err
			}
			if end != tag {
				return nil, p.errf("mismatched closing tag </%s> for <%s>", end, tag)
			}
			p.skipSpace()
			if err := p.expect(">"); err != nil {
				return nil, err
			}
			return e, nil
		case p.peek() == '<':
			child, err := p.parseElemCtor()
			if err != nil {
				return nil, err
			}
			e.Content = append(e.Content, child)
		case p.peek() == '{':
			p.pos++
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.skipSpace()
			if err := p.expect("}"); err != nil {
				return nil, err
			}
			e.Content = append(e.Content, inner)
		default:
			return nil, p.errf("unexpected content %q in <%s> (only nested constructors and {…} are allowed)", p.rest(10), tag)
		}
	}
}

// parseExpr parses any expression α.
func (p *parser) parseExpr() (Expr, error) {
	p.skipSpace()
	switch {
	case p.keyword("for") || p.keyword("let"):
		// Back up: parseFLWR re-reads the keyword.
		p.pos -= 3
		return p.parseFLWR()
	case p.keyword("if"):
		return p.parseIf()
	case p.peek() == '$':
		vp, err := p.parseVarPath()
		if err != nil {
			return nil, err
		}
		return &Output{Ref: vp}, nil
	case p.peek() == '(':
		return p.parseSequence()
	case p.peek() == '<':
		return p.parseElemCtor()
	}
	return nil, p.errf("expected expression, found %q", p.rest(10))
}

func (p *parser) parseFLWR() (Expr, error) {
	f := &FLWR{}
	for {
		p.skipSpace()
		switch {
		case p.keyword("for"):
			c, err := p.parseForClause()
			if err != nil {
				return nil, err
			}
			f.Clauses = append(f.Clauses, c)
		case p.keyword("let"):
			c, err := p.parseLetClause()
			if err != nil {
				return nil, err
			}
			f.Clauses = append(f.Clauses, c)
		case p.keyword("where"):
			cond, err := p.parseCondition(true)
			if err != nil {
				return nil, err
			}
			f.Where = cond
			p.skipSpace()
			if err := p.expectKeyword("return"); err != nil {
				return nil, err
			}
			return p.finishFLWR(f)
		case p.keyword("return"):
			return p.finishFLWR(f)
		default:
			return nil, p.errf("expected for/let/where/return, found %q", p.rest(10))
		}
	}
}

func (p *parser) expectKeyword(s string) error {
	if !p.keyword(s) {
		return p.errf("expected %q, found %q", s, p.rest(10))
	}
	return nil
}

func (p *parser) finishFLWR(f *FLWR) (Expr, error) {
	if len(f.Clauses) == 0 {
		return nil, p.errf("FLWR expression needs at least one for/let clause")
	}
	ret, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	f.Return = ret
	return f, nil
}

func (p *parser) parseForClause() (*ForClause, error) {
	p.skipSpace()
	if err := p.expect("$"); err != nil {
		return nil, err
	}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if err := p.expectKeyword("in"); err != nil {
		return nil, err
	}
	src, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	c := &ForClause{Var: v, Source: src}
	p.skipSpace()
	if p.peek() == '|' {
		w, err := p.parseWindow()
		if err != nil {
			return nil, err
		}
		c.Window = w
	}
	return c, nil
}

func (p *parser) parseSource() (Source, error) {
	p.skipSpace()
	var s Source
	switch {
	case p.keyword("stream"):
		p.skipSpace()
		if err := p.expect("("); err != nil {
			return s, err
		}
		p.skipSpace()
		if err := p.expect(`"`); err != nil {
			return s, err
		}
		end := strings.IndexByte(p.src[p.pos:], '"')
		if end < 0 {
			return s, p.errf("unterminated stream name")
		}
		if end == 0 {
			return s, p.errf("empty stream name")
		}
		name := p.src[p.pos : p.pos+end]
		for i := 0; i < len(name); i++ {
			if !isIdent(name[i]) {
				return s, p.errf("invalid character %q in stream name", name[i])
			}
		}
		s.Stream = name
		p.pos += end + 1
		p.skipSpace()
		if err := p.expect(")"); err != nil {
			return s, err
		}
	case p.peek() == '$':
		p.pos++
		v, err := p.ident()
		if err != nil {
			return s, err
		}
		s.Var = v
	default:
		return s, p.errf(`expected stream("…") or $var, found %q`, p.rest(10))
	}
	for {
		p.skipSpace()
		if p.peek() != '/' {
			break
		}
		p.pos++
		p.skipSpace()
		name, err := p.ident()
		if err != nil {
			return s, err
		}
		step := PathStep{Name: name}
		p.skipSpace()
		if p.peek() == '[' {
			p.pos++
			cond, err := p.parseCondition(false)
			if err != nil {
				return s, err
			}
			p.skipSpace()
			if err := p.expect("]"); err != nil {
				return s, err
			}
			step.Cond = cond
		}
		s.Steps = append(s.Steps, step)
	}
	return s, nil
}

func (p *parser) parseWindow() (*Window, error) {
	if err := p.expect("|"); err != nil {
		return nil, err
	}
	p.skipSpace()
	w := &Window{}
	if p.keyword("count") {
		w.Kind = WindowCount
	} else {
		w.Kind = WindowDiff
		// Reference element path, then the keyword diff.
		var segs []string
		for {
			p.skipSpace()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			segs = append(segs, name)
			p.skipSpace()
			if p.peek() == '/' {
				p.pos++
				continue
			}
			break
		}
		w.Ref = xmlstream.Path(segs)
		if err := p.expectKeyword("diff"); err != nil {
			return nil, err
		}
	}
	p.skipSpace()
	size, err := p.number()
	if err != nil {
		return nil, err
	}
	if size.Sign() <= 0 {
		return nil, p.errf("window size must be positive, got %s", size)
	}
	w.Size = size
	w.Step = size
	p.skipSpace()
	if p.keyword("step") {
		p.skipSpace()
		step, err := p.number()
		if err != nil {
			return nil, err
		}
		if step.Sign() <= 0 {
			return nil, p.errf("window step must be positive, got %s", step)
		}
		w.Step = step
	}
	p.skipSpace()
	if err := p.expect("|"); err != nil {
		return nil, err
	}
	return w, nil
}

func (p *parser) parseLetClause() (*LetClause, error) {
	p.skipSpace()
	if err := p.expect("$"); err != nil {
		return nil, err
	}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if err := p.expect(":="); err != nil {
		return nil, err
	}
	p.skipSpace()
	fn, err := p.ident()
	if err != nil {
		return nil, err
	}
	c := &LetClause{Var: v}
	if op, ok := ParseAggOp(fn); ok {
		c.Agg = op
	} else {
		c.UDF = fn
	}
	p.skipSpace()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	p.skipSpace()
	of, err := p.parseVarPath()
	if err != nil {
		return nil, err
	}
	c.Of = of
	for {
		p.skipSpace()
		if !p.lit(",") {
			break
		}
		if c.UDF == "" {
			return nil, p.errf("builtin aggregate %s takes a single argument", fn)
		}
		p.skipSpace()
		arg, err := p.number()
		if err != nil {
			return nil, err
		}
		c.ExtraArgs = append(c.ExtraArgs, arg)
	}
	p.skipSpace()
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseVarPath parses $x or $x/a/b.
func (p *parser) parseVarPath() (VarPath, error) {
	if err := p.expect("$"); err != nil {
		return VarPath{}, err
	}
	v, err := p.ident()
	if err != nil {
		return VarPath{}, err
	}
	vp := VarPath{Var: v}
	for {
		save := p.pos
		p.skipSpace()
		if p.peek() != '/' {
			p.pos = save
			break
		}
		p.pos++
		p.skipSpace()
		seg, err := p.ident()
		if err != nil {
			return VarPath{}, err
		}
		vp.Path = append(vp.Path, seg)
	}
	return vp, nil
}

// parseCondition parses a conjunction of atomic predicates. If dollar is
// true, operands must be $-prefixed variable paths (where-clause syntax);
// otherwise bare context-relative paths are allowed (path conditions).
func (p *parser) parseCondition(dollar bool) (*Condition, error) {
	c := &Condition{}
	for {
		atom, err := p.parseAtom(dollar)
		if err != nil {
			return nil, err
		}
		c.Atoms = append(c.Atoms, atom)
		p.skipSpace()
		if !p.keyword("and") {
			return c, nil
		}
	}
}

func (p *parser) parseAtom(dollar bool) (CondAtom, error) {
	var a CondAtom
	p.skipSpace()
	left, err := p.parseOperandPath(dollar)
	if err != nil {
		return a, err
	}
	a.Left = left
	p.skipSpace()
	op, err := p.parseCompareOp()
	if err != nil {
		return a, err
	}
	a.Op = op
	p.skipSpace()
	if p.peek() == '$' || (!dollar && isNameStart(p.peek())) {
		right, err := p.parseOperandPath(dollar)
		if err != nil {
			return a, err
		}
		a.Right = &right
		save := p.pos
		p.skipSpace()
		if p.lit("+") {
			p.skipSpace()
			c, err := p.number()
			if err != nil {
				return a, err
			}
			a.Const = c
		} else if p.lit("-") {
			p.skipSpace()
			c, err := p.number()
			if err != nil {
				return a, err
			}
			a.Const = c.Neg()
		} else {
			p.pos = save
		}
		return a, nil
	}
	c, err := p.number()
	if err != nil {
		return a, err
	}
	a.Const = c
	return a, nil
}

func (p *parser) parseOperandPath(dollar bool) (VarPath, error) {
	if p.peek() == '$' {
		return p.parseVarPath()
	}
	if dollar {
		return VarPath{}, p.errf("expected $var operand, found %q", p.rest(10))
	}
	// Bare relative path in a path condition.
	var vp VarPath
	for {
		seg, err := p.ident()
		if err != nil {
			return vp, err
		}
		vp.Path = append(vp.Path, seg)
		if p.peek() == '/' {
			p.pos++
			continue
		}
		return vp, nil
	}
}

func (p *parser) parseCompareOp() (predicate.Op, error) {
	switch {
	case p.lit(">="):
		return predicate.Ge, nil
	case p.lit("<="):
		return predicate.Le, nil
	case p.lit("="):
		return predicate.Eq, nil
	case p.lit(">"):
		return predicate.Gt, nil
	case p.lit("<"):
		return predicate.Lt, nil
	}
	return 0, p.errf("expected comparison operator, found %q", p.rest(10))
}

func (p *parser) parseIf() (Expr, error) {
	cond, err := p.parseCondition(true)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	thenE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if err := p.expectKeyword("else"); err != nil {
		return nil, err
	}
	elseE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &IfExpr{Cond: *cond, Then: thenE, Else: elseE}, nil
}

func (p *parser) parseSequence() (Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	s := &Sequence{}
	p.skipSpace()
	if p.lit(")") {
		return s, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, e)
		p.skipSpace()
		if p.lit(",") {
			continue
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return s, nil
	}
}
