package sql

import (
	"fmt"
	"strconv"
	"strings"

	"grfusion/internal/expr"
	"grfusion/internal/types"
)

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(input string) (Statement, error) {
	stmt, _, err := ParseWithParams(input)
	return stmt, err
}

// ParseWithParams is Parse that also returns the statement's number of
// `?` placeholders, wherever they occur: the parser numbers them 0..n-1
// in lexical order, so n is the count a prepared statement binds.
func ParseWithParams(input string) (Statement, int, error) {
	stmts, _, n, err := parseScript(input)
	if err != nil {
		return nil, 0, err
	}
	if len(stmts) != 1 {
		return nil, 0, fmt.Errorf("expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], n, nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(input string) ([]Statement, error) {
	stmts, _, err := ParseAllWithText(input)
	return stmts, err
}

// ParseAllWithText parses a semicolon-separated script and also returns
// each statement's source text (surrounding whitespace and the trailing
// ';' stripped), for callers that log or echo statements individually —
// the durable engine records each script statement in its WAL.
func ParseAllWithText(input string) ([]Statement, []string, error) {
	stmts, texts, _, err := parseScript(input)
	return stmts, texts, err
}

// parseScript parses a semicolon-separated script into its statements,
// their source texts and the number of `?` placeholders in the script.
func parseScript(input string) ([]Statement, []string, int, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, nil, 0, err
	}
	p := &parser{toks: toks}
	var out []Statement
	var texts []string
	for {
		for p.acceptSymbol(";") {
		}
		if p.peek().Kind == TokEOF {
			break
		}
		start := p.peek().Pos
		s, err := p.parseStatement()
		if err != nil {
			return nil, nil, 0, err
		}
		// The next token is the ';' (or EOF, whose Pos is len(input)):
		// everything between start and it is this statement's source.
		out = append(out, s)
		texts = append(texts, strings.TrimSpace(input[start:p.peek().Pos]))
		if !p.acceptSymbol(";") && p.peek().Kind != TokEOF {
			return nil, nil, 0, p.errf("expected ';' or end of input, found %s", p.peek())
		}
	}
	return out, texts, p.params, nil
}

type parser struct {
	toks []Token
	i    int
	// params counts positional `?` parameters in lexical order.
	params int
}

func (p *parser) peek() Token  { return p.toks[p.i] }
func (p *parser) peek2() Token { return p.toks[min(p.i+1, len(p.toks)-1)] }
func (p *parser) next() Token  { t := p.toks[p.i]; p.i++; return t }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("parse error near offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, found %s", s, p.peek())
	}
	return nil
}

// ident accepts an identifier. Keywords that commonly appear as attribute
// names in graph-view clauses (FROM, TO, etc.) are NOT accepted here; use
// identOrKeyword where the grammar allows them.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.i++
	return t.Text, nil
}

// identOrKeyword accepts an identifier or any keyword (used where SQL
// keywords may serve as names, e.g. FROM/TO/VERTEXES/EDGES attribute
// names and path member chains).
func (p *parser) identOrKeyword() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent && t.Kind != TokKeyword {
		return "", p.errf("expected name, found %s", t)
	}
	p.i++
	return t.Text, nil
}

func (p *parser) intLit() (int, error) {
	t := p.peek()
	if t.Kind != TokInt {
		return 0, p.errf("expected integer, found %s", t)
	}
	p.i++
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.Text)
	}
	return n, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errf("expected a statement, found %s", t)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		p.i++
		analyze := p.acceptKeyword("ANALYZE")
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		sel, ok := inner.(*Select)
		if !ok {
			return nil, p.errf("EXPLAIN supports SELECT statements only")
		}
		return &Explain{Query: sel, Analyze: analyze}, nil
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "TRUNCATE":
		p.i++
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &TruncateTable{Name: name}, nil
	case "SET":
		return p.parseSet()
	case "SHOW":
		p.i++
		switch {
		case p.acceptKeyword("TABLES"):
			return &Show{What: "TABLES"}, nil
		case p.acceptKeyword("GRAPH"):
			if err := p.expectKeyword("VIEWS"); err != nil {
				return nil, err
			}
			return &Show{What: "GRAPH VIEWS"}, nil
		case p.acceptKeyword("MATERIALIZED"):
			if err := p.expectKeyword("VIEWS"); err != nil {
				return nil, err
			}
			return &Show{What: "MATERIALIZED VIEWS"}, nil
		case p.acceptKeyword("METRICS"):
			return &Show{What: "METRICS"}, nil
		case p.acceptKeyword("HEALTH"):
			return &Show{What: "HEALTH"}, nil
		default:
			return nil, p.errf("expected TABLES, GRAPH VIEWS, MATERIALIZED VIEWS, METRICS or HEALTH after SHOW")
		}
	default:
		return nil, p.errf("unsupported statement %s", t)
	}
}

// parseSet parses SET <name> = <value>. The value is an integer (e.g.
// SET QUERY_TIMEOUT = 50) or, for string-valued settings, a bare word or
// string literal (e.g. SET WAL_FSYNC = ALWAYS). An integer may carry a
// leading '-' so out-of-range settings fail in the engine with a
// meaningful message rather than in the lexer.
func (p *parser) parseSet() (Statement, error) {
	p.i++ // SET
	name, err := p.identOrKeyword()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind == TokIdent || t.Kind == TokKeyword || t.Kind == TokString {
		p.i++
		return &Set{Name: strings.ToUpper(name), Str: t.Text, IsStr: true}, nil
	}
	neg := p.acceptSymbol("-")
	n, err := p.intLit()
	if err != nil {
		return nil, err
	}
	v := int64(n)
	if neg {
		v = -v
	}
	return &Set{Name: strings.ToUpper(name), Value: v}, nil
}

// --- DDL -------------------------------------------------------------------

var typeNames = map[string]types.Kind{
	"BIGINT": types.KindInt, "INT": types.KindInt, "INTEGER": types.KindInt,
	"DOUBLE": types.KindFloat, "FLOAT": types.KindFloat, "REAL": types.KindFloat,
	"VARCHAR": types.KindString, "STRING": types.KindString, "TEXT": types.KindString,
	"BOOLEAN": types.KindBool, "BOOL": types.KindBool,
}

func (p *parser) parseCreate() (Statement, error) {
	p.i++ // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(false)
	case p.acceptKeyword("ORDERED"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true)
	case p.acceptKeyword("MATERIALIZED"):
		return p.parseCreateMatView()
	case p.acceptKeyword("UNDIRECTED"):
		return p.parseCreateGraphView(false)
	case p.acceptKeyword("DIRECTED"):
		return p.parseCreateGraphView(true)
	case p.peek().Kind == TokKeyword && p.peek().Text == "GRAPH":
		return p.parseCreateGraphView(true) // directed by default
	default:
		return nil, p.errf("expected TABLE, INDEX or GRAPH VIEW after CREATE")
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				ct.PK = append(ct.PK, c)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		} else {
			cname, err := p.ident()
			if err != nil {
				return nil, err
			}
			tname, err := p.identOrKeyword()
			if err != nil {
				return nil, err
			}
			kind, ok := typeNames[strings.ToUpper(tname)]
			if !ok {
				return nil, p.errf("unknown type %q", tname)
			}
			// Optional length, e.g. VARCHAR(32): parsed and ignored.
			if p.acceptSymbol("(") {
				if _, err := p.intLit(); err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			col := ColDef{Name: cname, Type: kind}
			if p.acceptKeyword("PRIMARY") {
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				col.PK = true
				ct.PK = append(ct.PK, cname)
			}
			ct.Cols = append(ct.Cols, col)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

// parseCreateMatView parses the tail of CREATE MATERIALIZED VIEW.
func (p *parser) parseCreateMatView() (Statement, error) {
	if err := p.expectKeyword("VIEW"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	params := p.params
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	mv := &CreateMatView{Name: name}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		mv.Items = append(mv.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if mv.Base, err = p.ident(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		if mv.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	// A view's definition is re-evaluated on every base-table write, never
	// bound to arguments: it takes no `?`.
	if p.params != params {
		return nil, fmt.Errorf("materialized view %s: parameters are not allowed", name)
	}
	return mv, nil
}

func (p *parser) parseCreateIndex(ordered bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	ci := &CreateIndex{Name: name, Table: table, Ordered: ordered}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci.Cols = append(ci.Cols, c)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *parser) parseCreateGraphView(directed bool) (Statement, error) {
	if err := p.expectKeyword("GRAPH"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VIEW"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	gv := &CreateGraphView{Name: name, Directed: directed}
	if err := p.expectKeyword("VERTEXES"); err != nil {
		return nil, err
	}
	if gv.VertexAttrs, err = p.parseNameMaps(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if gv.VertexSource, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("EDGES"); err != nil {
		return nil, err
	}
	if gv.EdgeAttrs, err = p.parseNameMaps(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if gv.EdgeSource, err = p.ident(); err != nil {
		return nil, err
	}
	return gv, nil
}

// parseNameMaps parses (name = source, ...). Exposed names may be keywords
// (ID, FROM, TO).
func (p *parser) parseNameMaps() ([]NameMap, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var out []NameMap
	for {
		n, err := p.identOrKeyword()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		src, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, NameMap{Name: n, Source: src})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.i++ // DROP
	switch {
	case p.acceptKeyword("TABLE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.acceptKeyword("GRAPH"):
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropGraphView{Name: name}, nil
	case p.acceptKeyword("MATERIALIZED"):
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropMatView{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE, GRAPH VIEW or MATERIALIZED VIEW after DROP")
	}
}

// --- DML -------------------------------------------------------------------

func (p *parser) parseInsert() (Statement, error) {
	p.i++ // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.acceptSymbol("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.i++ // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	u := &Update{Table: table}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Sets = append(u.Sets, SetClause{Col: c, E: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		if u.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.i++ // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		if d.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// --- SELECT ----------------------------------------------------------------

func (p *parser) parseSelect() (Statement, error) {
	p.i++ // SELECT
	s := &Select{Top: -1, Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		s.Distinct = true
	}
	if p.acceptKeyword("TOP") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		s.Top = n
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	// FROM is optional: constant SELECTs evaluate over a singleton row.
	var joinConds []expr.Expr
	if p.acceptKeyword("FROM") {
		for {
			item, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, item)
			// Explicit joins are desugared into a cross product + predicates.
			for {
				if p.acceptKeyword("INNER") {
					if err := p.expectKeyword("JOIN"); err != nil {
						return nil, err
					}
				} else if !p.acceptKeyword("JOIN") {
					break
				}
				item, err := p.parseFromItem()
				if err != nil {
					return nil, err
				}
				s.From = append(s.From, item)
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				joinConds = append(joinConds, cond)
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	var err error
	if p.acceptKeyword("WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if len(joinConds) > 0 {
		conj := expr.JoinConjuncts(joinConds)
		if s.Where == nil {
			s.Where = conj
		} else {
			s.Where = &expr.BinaryExpr{Op: expr.OpAnd, L: conj, R: s.Where}
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		if s.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{E: e}
			if p.acceptKeyword("DESC") {
				oi.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, oi)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		if s.Limit, err = p.intLit(); err != nil {
			return nil, err
		}
		if p.acceptKeyword("OFFSET") {
			if s.Offset, err = p.intLit(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// Qualified star: ident.* (lookahead).
	if p.peek().Kind == TokIdent && p.peek2().Kind == TokSymbol && p.peek2().Text == "." {
		if p.i+2 < len(p.toks) && p.toks[p.i+2].Kind == TokSymbol && p.toks[p.i+2].Text == "*" {
			q := p.next().Text
			p.next() // .
			p.next() // *
			return SelectItem{Star: true, StarQual: q}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		if item.Alias, err = p.ident(); err != nil {
			return SelectItem{}, err
		}
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	name, err := p.ident()
	if err != nil {
		return FromItem{}, err
	}
	item := FromItem{Name: name}
	if p.acceptSymbol(".") {
		switch {
		case p.acceptKeyword("VERTEXES"):
			item.Member = MemberVertexes
		case p.acceptKeyword("EDGES"):
			item.Member = MemberEdges
		case p.acceptKeyword("PATHS"):
			item.Member = MemberPaths
		case p.peek().Kind == TokIdent && p.peek2().Kind == TokSymbol && p.peek2().Text == "(":
			// An analytics table-valued function: GV.PAGERANK(0.85, 20).
			// The function names are deliberately not keywords, so they
			// stay usable as identifiers everywhere else.
			item.Member = MemberAnalytics
			item.Func = p.next().Text
			p.next() // consume "("
			if !p.acceptSymbol(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return FromItem{}, err
					}
					item.Args = append(item.Args, arg)
					if !p.acceptSymbol(",") {
						break
					}
				}
				if err := p.expectSymbol(")"); err != nil {
					return FromItem{}, err
				}
			}
		default:
			return FromItem{}, p.errf("expected VERTEXES, EDGES, PATHS or an analytics function after %q.", name)
		}
	}
	if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	if p.acceptKeyword("HINT") {
		if item.Member != MemberPaths {
			return FromItem{}, p.errf("HINT is only valid on a PATHS item")
		}
		if err := p.expectSymbol("("); err != nil {
			return FromItem{}, err
		}
		for {
			kind, err := p.ident()
			if err != nil {
				return FromItem{}, err
			}
			switch strings.ToUpper(kind) {
			case "DFS":
				item.Hint.Kind = HintDFS
			case "BFS":
				item.Hint.Kind = HintBFS
			case "ALLPATHS":
				item.Hint.AllPaths = true
			case "SHORTESTPATH":
				item.Hint.Kind = HintShortestPath
				if err := p.expectSymbol("("); err != nil {
					return FromItem{}, err
				}
				attr, err := p.identOrKeyword()
				if err != nil {
					return FromItem{}, err
				}
				item.Hint.WeightAttr = attr
				if err := p.expectSymbol(")"); err != nil {
					return FromItem{}, err
				}
			default:
				return FromItem{}, p.errf("unknown traversal hint %q", kind)
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return FromItem{}, err
		}
	}
	return item, nil
}

// --- Expressions -----------------------------------------------------------

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.BinaryExpr{Op: expr.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &expr.BinaryExpr{Op: expr.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.UnaryExpr{Op: expr.OpNot, E: e}, nil
	}
	return p.parseComparison()
}

var compareOps = map[string]expr.BinOp{
	"=": expr.OpEq, "<>": expr.OpNe, "!=": expr.OpNe,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseComparison() (expr.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokSymbol {
		if op, ok := compareOps[t.Text]; ok {
			p.i++
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &expr.BinaryExpr{Op: op, L: l, R: r}, nil
		}
		return l, nil
	}
	if t.Kind != TokKeyword {
		return l, nil
	}
	neg := false
	if t.Text == "NOT" && p.peek2().Kind == TokKeyword &&
		(p.peek2().Text == "IN" || p.peek2().Text == "LIKE" || p.peek2().Text == "BETWEEN") {
		p.i++
		neg = true
		t = p.peek()
	}
	switch t.Text {
	case "LIKE":
		p.i++
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		var e expr.Expr = &expr.BinaryExpr{Op: expr.OpLike, L: l, R: r}
		if neg {
			e = &expr.UnaryExpr{Op: expr.OpNot, E: e}
		}
		return e, nil
	case "IN":
		p.i++
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		in := &expr.InExpr{E: l, Neg: neg}
		for {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, x)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return in, nil
	case "BETWEEN":
		p.i++
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		var e expr.Expr = &expr.BinaryExpr{Op: expr.OpAnd,
			L: &expr.BinaryExpr{Op: expr.OpGe, L: l, R: lo},
			R: &expr.BinaryExpr{Op: expr.OpLe, L: l.Clone(), R: hi}}
		if neg {
			e = &expr.UnaryExpr{Op: expr.OpNot, E: e}
		}
		return e, nil
	case "IS":
		p.i++
		n := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNullExpr{E: l, Neg: n}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (expr.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "+" && t.Text != "-") {
			return l, nil
		}
		p.i++
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		op := expr.OpAdd
		if t.Text == "-" {
			op = expr.OpSub
		}
		l = &expr.BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return l, nil
		}
		p.i++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := expr.OpMul
		switch t.Text {
		case "/":
			op = expr.OpDiv
		case "%":
			op = expr.OpMod
		}
		l = &expr.BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold a negated literal for nicer plans.
		if lit, ok := e.(*expr.Literal); ok && lit.Val.IsNumeric() {
			if lit.Val.Kind == types.KindInt {
				return &expr.Literal{Val: types.NewInt(-lit.Val.I)}, nil
			}
			return &expr.Literal{Val: types.NewFloat(-lit.Val.F)}, nil
		}
		return &expr.UnaryExpr{Op: expr.OpNeg, E: e}, nil
	}
	p.acceptSymbol("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokInt:
		p.i++
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", t.Text)
		}
		return &expr.Literal{Val: types.NewInt(n)}, nil
	case TokFloat:
		p.i++
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad float literal %q", t.Text)
		}
		return &expr.Literal{Val: types.NewFloat(f)}, nil
	case TokString:
		p.i++
		return &expr.Literal{Val: types.NewString(t.Text)}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "?" {
			p.i++
			prm := &expr.Param{Idx: p.params}
			p.params++
			return prm, nil
		}
		return nil, p.errf("unexpected %s in expression", t)
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.i++
			return &expr.Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.i++
			return &expr.Literal{Val: types.NewBool(false)}, nil
		case "NULL":
			p.i++
			return &expr.Literal{Val: types.Null()}, nil
		case "CASE":
			return p.parseCase()
		case "EDGES", "VERTEXES":
			// Allow a reference chain beginning with these (rare but legal
			// as column names in user tables).
			return p.parseRefChain()
		}
		return nil, p.errf("unexpected %s in expression", t)
	case TokIdent:
		// Function call?
		if p.peek2().Kind == TokSymbol && p.peek2().Text == "(" {
			return p.parseFuncCall()
		}
		return p.parseRefChain()
	default:
		return nil, p.errf("unexpected %s in expression", t)
	}
}

func (p *parser) parseCase() (expr.Expr, error) {
	p.i++ // CASE
	c := &expr.CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expr.CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseFuncCall() (expr.Expr, error) {
	name := p.next().Text
	p.next() // (
	f := &expr.FuncCall{Name: name}
	if p.acceptSymbol("*") {
		f.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptSymbol(")") {
		return nil, p.errf("function %s requires arguments", name)
	}
	if p.acceptKeyword("DISTINCT") {
		f.Distinct = true
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, a)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return f, nil
}

// parseRefChain parses a dotted, optionally subscripted reference:
// U.Job, PS.Length, PS.Edges[0..*].StartDate, PS.Edges[2].EndVertex.
func (p *parser) parseRefChain() (expr.Expr, error) {
	r := &expr.RawRef{}
	for {
		name, err := p.identOrKeyword()
		if err != nil {
			return nil, err
		}
		part := expr.RefPart{Name: name}
		if p.acceptSymbol("[") {
			part.HasIndex = true
			start, err := p.intLit()
			if err != nil {
				return nil, err
			}
			part.Start, part.End = start, start
			if p.acceptSymbol("..") {
				if p.acceptSymbol("*") {
					part.Wildcard = true
					part.End = -1
				} else {
					end, err := p.intLit()
					if err != nil {
						return nil, err
					}
					part.End = end
				}
			}
			if err := p.expectSymbol("]"); err != nil {
				return nil, err
			}
		}
		r.Parts = append(r.Parts, part)
		if !p.acceptSymbol(".") {
			break
		}
	}
	return r, nil
}
