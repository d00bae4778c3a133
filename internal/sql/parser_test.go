package sql

import (
	"strings"
	"testing"

	"grfusion/internal/expr"
	"grfusion/internal/types"
)

func parseOne(t *testing.T, in string) Statement {
	t.Helper()
	s, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	return s
}

func parseSelect(t *testing.T, in string) *Select {
	t.Helper()
	s, ok := parseOne(t, in).(*Select)
	if !ok {
		t.Fatalf("not a SELECT: %q", in)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a1, 'it''s', 1.5, 2 .. [0..*] <> <= -- comment\nx")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind == TokEOF {
			break
		}
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "a1", ",", "it's", ",", "1.5", ",", "2", "..",
		"[", "0", "..", "*", "]", "<>", "<=", "x"}
	if len(texts) != len(want) {
		t.Fatalf("tokens: %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q (%v)", i, texts[i], want[i], texts)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := Lex("a ~ b"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestNumberVsRange(t *testing.T) {
	toks, _ := Lex("1..3 1.5 2")
	if toks[0].Kind != TokInt || toks[1].Text != ".." || toks[2].Kind != TokInt {
		t.Errorf("1..3 lexed wrong: %v", toks[:3])
	}
	if toks[3].Kind != TokFloat {
		t.Errorf("1.5 lexed as %v", toks[3])
	}
}

func TestCreateTableParse(t *testing.T) {
	s := parseOne(t, `CREATE TABLE Users (uid BIGINT PRIMARY KEY, lname VARCHAR(30), dob VARCHAR, score DOUBLE, ok BOOLEAN)`)
	ct := s.(*CreateTable)
	if ct.Name != "Users" || len(ct.Cols) != 5 {
		t.Fatalf("%+v", ct)
	}
	if ct.Cols[0].Type != types.KindInt || !ct.Cols[0].PK {
		t.Errorf("col0: %+v", ct.Cols[0])
	}
	if ct.Cols[1].Type != types.KindString || ct.Cols[3].Type != types.KindFloat || ct.Cols[4].Type != types.KindBool {
		t.Errorf("types wrong: %+v", ct.Cols)
	}
	if len(ct.PK) != 1 || ct.PK[0] != "uid" {
		t.Errorf("pk: %v", ct.PK)
	}
}

func TestCreateTableTablePK(t *testing.T) {
	ct := parseOne(t, `CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a, b))`).(*CreateTable)
	if len(ct.PK) != 2 || ct.PK[0] != "a" || ct.PK[1] != "b" {
		t.Errorf("pk: %v", ct.PK)
	}
}

func TestCreateIndexParse(t *testing.T) {
	ci := parseOne(t, `CREATE INDEX ix ON t (a, b)`).(*CreateIndex)
	if ci.Ordered || ci.Table != "t" || len(ci.Cols) != 2 {
		t.Errorf("%+v", ci)
	}
	ci = parseOne(t, `CREATE ORDERED INDEX ix ON t (a)`).(*CreateIndex)
	if !ci.Ordered {
		t.Error("ORDERED lost")
	}
}

// Listing 1 of the paper.
func TestCreateGraphViewListing1(t *testing.T) {
	stmt := parseOne(t, `
		CREATE UNDIRECTED GRAPH VIEW SocialNetwork
		VERTEXES(ID = uid, lstname = lname, birthdate = dob)
		FROM Users
		EDGES(ID = relid, FROM = uid1, TO = uid2, sdate = startdate, relative = isrelative)
		FROM Relationships`)
	gv := stmt.(*CreateGraphView)
	if gv.Name != "SocialNetwork" || gv.Directed {
		t.Fatalf("%+v", gv)
	}
	if gv.VertexSource != "Users" || gv.EdgeSource != "Relationships" {
		t.Errorf("sources: %q %q", gv.VertexSource, gv.EdgeSource)
	}
	if len(gv.VertexAttrs) != 3 || gv.VertexAttrs[0].Name != "ID" || gv.VertexAttrs[1].Source != "lname" {
		t.Errorf("vertex attrs: %+v", gv.VertexAttrs)
	}
	if len(gv.EdgeAttrs) != 5 || gv.EdgeAttrs[1].Name != "FROM" || gv.EdgeAttrs[2].Name != "TO" {
		t.Errorf("edge attrs: %+v", gv.EdgeAttrs)
	}
}

func TestCreateDirectedGraphViewDefault(t *testing.T) {
	gv := parseOne(t, `CREATE GRAPH VIEW g VERTEXES(ID=a) FROM v EDGES(ID=b, FROM=c, TO=d) FROM e`).(*CreateGraphView)
	if !gv.Directed {
		t.Error("default must be directed")
	}
	gv = parseOne(t, `CREATE DIRECTED GRAPH VIEW g VERTEXES(ID=a) FROM v EDGES(ID=b, FROM=c, TO=d) FROM e`).(*CreateGraphView)
	if !gv.Directed {
		t.Error("DIRECTED lost")
	}
}

func TestDropStatements(t *testing.T) {
	if d := parseOne(t, `DROP TABLE t`).(*DropTable); d.Name != "t" {
		t.Errorf("%+v", d)
	}
	if d := parseOne(t, `DROP GRAPH VIEW g`).(*DropGraphView); d.Name != "g" {
		t.Errorf("%+v", d)
	}
	if tr := parseOne(t, `TRUNCATE TABLE t`).(*TruncateTable); tr.Name != "t" {
		t.Errorf("%+v", tr)
	}
}

func TestInsertParse(t *testing.T) {
	ins := parseOne(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL)`).(*Insert)
	if ins.Table != "t" || len(ins.Cols) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	if lit := ins.Rows[1][0].(*expr.Literal); lit.Val.I != -2 {
		t.Errorf("negative literal: %v", lit.Val)
	}
	ins = parseOne(t, `INSERT INTO t VALUES (1)`).(*Insert)
	if ins.Cols != nil || len(ins.Rows) != 1 {
		t.Errorf("%+v", ins)
	}
}

func TestUpdateDeleteParse(t *testing.T) {
	u := parseOne(t, `UPDATE t SET a = a + 1, b = 'x' WHERE a > 2`).(*Update)
	if u.Table != "t" || len(u.Sets) != 2 || u.Where == nil {
		t.Fatalf("%+v", u)
	}
	d := parseOne(t, `DELETE FROM t WHERE a = 1`).(*Delete)
	if d.Table != "t" || d.Where == nil {
		t.Fatalf("%+v", d)
	}
	d = parseOne(t, `DELETE FROM t`).(*Delete)
	if d.Where != nil {
		t.Error("spurious where")
	}
}

func TestSelectBasics(t *testing.T) {
	s := parseSelect(t, `SELECT DISTINCT a, b AS bb, t.* FROM t WHERE a > 1 GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC, b LIMIT 5 OFFSET 2`)
	if !s.Distinct || len(s.Items) != 3 || s.Items[1].Alias != "bb" {
		t.Fatalf("%+v", s)
	}
	if !s.Items[2].Star || s.Items[2].StarQual != "t" {
		t.Errorf("qualified star: %+v", s.Items[2])
	}
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("group/having lost")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("order: %+v", s.OrderBy)
	}
	if s.Limit != 5 || s.Offset != 2 {
		t.Errorf("limit/offset: %d %d", s.Limit, s.Offset)
	}
}

func TestSelectStar(t *testing.T) {
	s := parseSelect(t, `SELECT * FROM t`)
	if len(s.Items) != 1 || !s.Items[0].Star || s.Items[0].StarQual != "" {
		t.Fatalf("%+v", s.Items)
	}
}

func TestJoinDesugaring(t *testing.T) {
	s := parseSelect(t, `SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y WHERE a.z = 1`)
	if len(s.From) != 3 {
		t.Fatalf("from: %+v", s.From)
	}
	// Where must contain all three conjuncts.
	conj := expr.SplitConjuncts(s.Where)
	if len(conj) != 3 {
		t.Errorf("conjuncts: %d (%s)", len(conj), s.Where)
	}
}

// Listing 2 of the paper (friends-of-friends).
func TestPathsQueryListing2(t *testing.T) {
	s := parseSelect(t, `
		SELECT PS.EndVertex.lstName
		FROM Users U, SocialNetwork.Paths PS
		WHERE U.Job = 'Lawyer' AND PS.StartVertex.Id = U.uId
		  AND PS.Length = 2 AND PS.Edges[0..*].StartDate > '2000-01-01'`)
	if len(s.From) != 2 {
		t.Fatalf("from: %+v", s.From)
	}
	if s.From[1].Member != MemberPaths || s.From[1].Alias != "PS" || s.From[1].Name != "SocialNetwork" {
		t.Errorf("paths item: %+v", s.From[1])
	}
	conj := expr.SplitConjuncts(s.Where)
	if len(conj) != 4 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
	// The wildcard range must round-trip.
	found := false
	expr.Walk(s.Where, func(e expr.Expr) bool {
		if r, ok := e.(*expr.RawRef); ok && strings.Contains(r.String(), "[0..*]") {
			found = true
		}
		return true
	})
	if !found {
		t.Error("wildcard subscript lost")
	}
}

// Listing 3 of the paper (reachability with IN).
func TestReachabilityListing3(t *testing.T) {
	s := parseSelect(t, `
		SELECT PS.PathString
		FROM Proteins Pr1, Proteins Pr2, BioNetwork.Paths PS
		WHERE Pr1.Name = 'Protein X' AND Pr2.Name = 'Protein Y'
		  AND PS.StartVertex.Id = Pr1.Id AND PS.EndVertex.Id = Pr2.Id
		  AND PS.Edges[0..*].Type IN ('covalent', 'stable')
		LIMIT 1`)
	if s.Limit != 1 || len(s.From) != 3 {
		t.Fatalf("%+v", s)
	}
	var in *expr.InExpr
	expr.Walk(s.Where, func(e expr.Expr) bool {
		if x, ok := e.(*expr.InExpr); ok {
			in = x
		}
		return true
	})
	if in == nil || len(in.List) != 2 {
		t.Fatalf("IN clause lost: %v", in)
	}
}

// Listing 4 of the paper (triangles).
func TestTrianglesListing4(t *testing.T) {
	s := parseSelect(t, `
		SELECT Count(P) FROM MLGraph.Paths P
		WHERE P.Length = 3 AND P.Edges[0].Label = 'A' AND P.Edges[1].Label = 'B'
		  AND P.Edges[2].Label = 'C' AND P.Edges[2].EndVertex = P.Edges[0].StartVertex`)
	f, ok := s.Items[0].Expr.(*expr.FuncCall)
	if !ok || strings.ToUpper(f.Name) != "COUNT" {
		t.Fatalf("count item: %+v", s.Items[0].Expr)
	}
	conj := expr.SplitConjuncts(s.Where)
	if len(conj) != 5 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
}

// Listing 5 of the paper (vertex scan).
func TestVertexesListing5(t *testing.T) {
	s := parseSelect(t, `SELECT VS.birthdate, VS.fanOut FROM SocialNetwork.Vertexes VS WHERE VS.lstName = 'Smith'`)
	if s.From[0].Member != MemberVertexes || s.From[0].Alias != "VS" {
		t.Fatalf("%+v", s.From[0])
	}
}

// Listing 6 of the paper (shortest-path hint + TOP).
func TestShortestPathListing6(t *testing.T) {
	s := parseSelect(t, `
		SELECT TOP 2 PS FROM RoadNetwork.Paths PS HINT(SHORTESTPATH(Distance)),
			RoadNetwork.Vertexes Src, RoadNetwork.Vertexes Dest
		WHERE PS.StartVertex.Id = Src.Id AND PS.EndVertex.Id = Dest.Id
		  AND Src.Address = 'Address 1' AND Dest.Address = 'Address 2'`)
	if s.Top != 2 {
		t.Fatalf("top: %d", s.Top)
	}
	h := s.From[0].Hint
	if h.Kind != HintShortestPath || h.WeightAttr != "Distance" {
		t.Fatalf("hint: %+v", h)
	}
	if s.From[1].Member != MemberVertexes || s.From[2].Alias != "Dest" {
		t.Errorf("from: %+v", s.From)
	}
}

func TestTraversalHints(t *testing.T) {
	for txt, kind := range map[string]HintKind{
		"DFS": HintDFS, "BFS": HintBFS,
	} {
		s := parseSelect(t, `SELECT 1 FROM g.Paths P HINT(`+txt+`)`)
		if s.From[0].Hint.Kind != kind {
			t.Errorf("hint %s: %+v", txt, s.From[0].Hint)
		}
	}
	s := parseSelect(t, `SELECT 1 FROM g.Paths P HINT(ALLPATHS)`)
	if !s.From[0].Hint.AllPaths {
		t.Error("ALLPATHS lost")
	}
	// Combined hints.
	s = parseSelect(t, `SELECT 1 FROM g.Paths P HINT(BFS, ALLPATHS)`)
	if s.From[0].Hint.Kind != HintBFS || !s.From[0].Hint.AllPaths {
		t.Errorf("combined hint: %+v", s.From[0].Hint)
	}
	if _, err := Parse(`SELECT 1 FROM g.Paths P HINT(WRONG)`); err == nil {
		t.Error("bad hint accepted")
	}
	if _, err := Parse(`SELECT 1 FROM t HINT(DFS)`); err == nil {
		t.Error("hint on table accepted")
	}
}

func TestExpressionPrecedence(t *testing.T) {
	s := parseSelect(t, `SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3`)
	or, ok := s.Where.(*expr.BinaryExpr)
	if !ok || or.Op != expr.OpOr {
		t.Fatalf("top op: %v", s.Where)
	}
	s = parseSelect(t, `SELECT 1 FROM t WHERE a + 2 * 3 = 7`)
	cmp := s.Where.(*expr.BinaryExpr)
	add := cmp.L.(*expr.BinaryExpr)
	if add.Op != expr.OpAdd {
		t.Fatalf("precedence: %s", s.Where)
	}
	if mul := add.R.(*expr.BinaryExpr); mul.Op != expr.OpMul {
		t.Fatalf("precedence: %s", s.Where)
	}
}

func TestNotLikeBetweenIsNull(t *testing.T) {
	s := parseSelect(t, `SELECT 1 FROM t WHERE a NOT LIKE 'x%' AND b BETWEEN 1 AND 3 AND c IS NOT NULL AND d NOT IN (1,2)`)
	// BETWEEN desugars into two conjuncts, so 5 in total.
	conj := expr.SplitConjuncts(s.Where)
	if len(conj) != 5 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
	if _, ok := conj[0].(*expr.UnaryExpr); !ok {
		t.Errorf("NOT LIKE shape: %T", conj[0])
	}
	if ge := conj[1].(*expr.BinaryExpr); ge.Op != expr.OpGe {
		t.Errorf("BETWEEN lower bound: %s", ge)
	}
	if le := conj[2].(*expr.BinaryExpr); le.Op != expr.OpLe {
		t.Errorf("BETWEEN upper bound: %s", le)
	}
	isn := conj[3].(*expr.IsNullExpr)
	if !isn.Neg {
		t.Error("IS NOT NULL lost negation")
	}
	in := conj[4].(*expr.InExpr)
	if !in.Neg {
		t.Error("NOT IN lost negation")
	}
}

func TestCaseParse(t *testing.T) {
	s := parseSelect(t, `SELECT CASE WHEN a = 1 THEN 'one' ELSE 'many' END FROM t`)
	if _, ok := s.Items[0].Expr.(*expr.CaseExpr); !ok {
		t.Fatalf("%T", s.Items[0].Expr)
	}
	if _, err := Parse(`SELECT CASE END FROM t`); err == nil {
		t.Error("empty CASE accepted")
	}
}

func TestShowParse(t *testing.T) {
	if s := parseOne(t, `SHOW TABLES`).(*Show); s.What != "TABLES" {
		t.Errorf("%+v", s)
	}
	if s := parseOne(t, `SHOW GRAPH VIEWS`).(*Show); s.What != "GRAPH VIEWS" {
		t.Errorf("%+v", s)
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`CREATE TABLE t (a BIGINT); INSERT INTO t VALUES (1); SELECT * FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("%d statements", len(stmts))
	}
	if _, err := ParseAll(`SELECT * FROM t garbage extra ^`); err == nil {
		t.Error("garbage accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`CREATE TABLE t (a NOTATYPE)`,
		`CREATE GRAPH VIEW g VERTEXES(ID=a) FROM v`, // missing EDGES
		`INSERT INTO t`,
		`UPDATE t`,
		`DELETE t`,
		`SELECT 1 FROM t LIMIT x`,
		`FOO BAR`,
		`SELECT COUNT() FROM t`,
		`SELECT a[1] FROM t WHERE a[1 = 2`,
		`SHOW NOTHING`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted: %q", q)
		}
	}
}

func TestFuncDistinctParse(t *testing.T) {
	s := parseSelect(t, `SELECT COUNT(DISTINCT a) FROM t`)
	f := s.Items[0].Expr.(*expr.FuncCall)
	if !f.Distinct || len(f.Args) != 1 {
		t.Errorf("%+v", f)
	}
	s = parseSelect(t, `SELECT COUNT(*) FROM t`)
	f = s.Items[0].Expr.(*expr.FuncCall)
	if !f.Star {
		t.Errorf("%+v", f)
	}
}

func TestSubscriptParsing(t *testing.T) {
	s := parseSelect(t, `SELECT 1 FROM g.Paths P WHERE P.Edges[2..5].w = 1 AND P.Vertexes[1].x = 2`)
	var rng, single *expr.RawRef
	expr.Walk(s.Where, func(e expr.Expr) bool {
		if r, ok := e.(*expr.RawRef); ok {
			// Keyword parts (EDGES/VERTEXES) are upper-cased by the lexer.
			up := strings.ToUpper(r.String())
			if strings.Contains(up, "EDGES[2..5]") {
				rng = r
			}
			if strings.Contains(up, "VERTEXES[1]") {
				single = r
			}
		}
		return true
	})
	if rng == nil || single == nil {
		t.Fatal("subscripts lost")
	}
	if rng.Parts[1].Start != 2 || rng.Parts[1].End != 5 || rng.Parts[1].Wildcard {
		t.Errorf("range: %+v", rng.Parts[1])
	}
	if !single.Parts[1].HasIndex || single.Parts[1].Start != 1 || single.Parts[1].End != 1 {
		t.Errorf("single: %+v", single.Parts[1])
	}
}

func TestParameterParsing(t *testing.T) {
	s := parseSelect(t, `SELECT a FROM t WHERE a = ? AND b IN (?, ?) AND c > ?`)
	var params []*expr.Param
	expr.Walk(s.Where, func(e expr.Expr) bool {
		if p, ok := e.(*expr.Param); ok {
			params = append(params, p)
		}
		return true
	})
	if len(params) != 4 {
		t.Fatalf("params: %d", len(params))
	}
	// Lexical numbering.
	for i, p := range params {
		if p.Idx != i {
			t.Errorf("param %d has idx %d", i, p.Idx)
		}
	}
	// Params work in INSERT values too.
	ins := parseOne(t, `INSERT INTO t VALUES (?, ?)`).(*Insert)
	if _, ok := ins.Rows[0][0].(*expr.Param); !ok {
		t.Errorf("insert param: %T", ins.Rows[0][0])
	}
}

func TestCreateMatViewParse(t *testing.T) {
	mv := parseOne(t, `CREATE MATERIALIZED VIEW Lawyers AS SELECT uid, lname AS name FROM Users WHERE job = 'Lawyer'`).(*CreateMatView)
	if mv.Name != "Lawyers" || mv.Base != "Users" || len(mv.Items) != 2 || mv.Where == nil {
		t.Fatalf("%+v", mv)
	}
	if mv.Items[1].Alias != "name" {
		t.Errorf("alias: %+v", mv.Items[1])
	}
	mv = parseOne(t, `CREATE MATERIALIZED VIEW v AS SELECT * FROM t`).(*CreateMatView)
	if !mv.Items[0].Star || mv.Where != nil {
		t.Errorf("%+v", mv)
	}
	if d := parseOne(t, `DROP MATERIALIZED VIEW v`).(*DropMatView); d.Name != "v" {
		t.Errorf("%+v", d)
	}
	if s := parseOne(t, `SHOW MATERIALIZED VIEWS`).(*Show); s.What != "MATERIALIZED VIEWS" {
		t.Errorf("%+v", s)
	}
	for _, bad := range []string{
		`CREATE MATERIALIZED VIEW v AS SELECT FROM t`,
		`CREATE MATERIALIZED VIEW v SELECT a FROM t`,
		`CREATE MATERIALIZED VIEW v AS SELECT a FROM t WHERE a = ?`,
		`DROP MATERIALIZED v`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted: %s", bad)
		}
	}
}

func TestExplainParse(t *testing.T) {
	ex := parseOne(t, `EXPLAIN SELECT a FROM t WHERE a = 1`).(*Explain)
	if ex.Query == nil || len(ex.Query.Items) != 1 {
		t.Fatalf("%+v", ex)
	}
	if _, err := Parse(`EXPLAIN DELETE FROM t`); err == nil {
		t.Error("EXPLAIN DML accepted")
	}
}

func TestExplainAnalyzeParse(t *testing.T) {
	ex := parseOne(t, `EXPLAIN ANALYZE SELECT a FROM t WHERE a = 1`).(*Explain)
	if !ex.Analyze || ex.Query == nil {
		t.Fatalf("%+v", ex)
	}
	if ex := parseOne(t, `EXPLAIN SELECT a FROM t`).(*Explain); ex.Analyze {
		t.Error("plain EXPLAIN parsed as ANALYZE")
	}
	if _, err := Parse(`EXPLAIN ANALYZE INSERT INTO t VALUES (1)`); err == nil {
		t.Error("EXPLAIN ANALYZE DML accepted")
	}
}

func TestShowMetricsParse(t *testing.T) {
	if s := parseOne(t, `SHOW METRICS`).(*Show); s.What != "METRICS" {
		t.Errorf("%+v", s)
	}
}

func TestShowHealthParse(t *testing.T) {
	if s := parseOne(t, `SHOW HEALTH`).(*Show); s.What != "HEALTH" {
		t.Errorf("%+v", s)
	}
	if s := parseOne(t, `show health`).(*Show); s.What != "HEALTH" {
		t.Errorf("lowercase: %+v", s)
	}
	if _, err := Parse(`SHOW DISKS`); err == nil {
		t.Error("SHOW DISKS accepted")
	}
}

func TestSetSlowQueryParse(t *testing.T) {
	s := parseOne(t, `SET SLOW_QUERY = 25`).(*Set)
	if s.Name != "SLOW_QUERY" || s.Value != 25 {
		t.Fatalf("%+v", s)
	}
}
