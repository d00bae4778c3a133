package catalog

import (
	"strings"
	"testing"

	"grfusion/internal/expr"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// socialFixture builds the Users/Relationships tables of Figure 3 and a
// SocialNetwork graph view over them (Listing 1).
func socialFixture(t *testing.T) (*Catalog, *storage.Table, *storage.Table, *GraphView) {
	t.Helper()
	c := New()
	users, err := storage.NewTable("Users", types.NewSchema(
		types.Column{Qualifier: "Users", Name: "uid", Type: types.KindInt},
		types.Column{Qualifier: "Users", Name: "lname", Type: types.KindString},
		types.Column{Qualifier: "Users", Name: "dob", Type: types.KindString},
	), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rels, err := storage.NewTable("Relationships", types.NewSchema(
		types.Column{Qualifier: "Relationships", Name: "relid", Type: types.KindInt},
		types.Column{Qualifier: "Relationships", Name: "uid1", Type: types.KindInt},
		types.Column{Qualifier: "Relationships", Name: "uid2", Type: types.KindInt},
		types.Column{Qualifier: "Relationships", Name: "sdate", Type: types.KindString},
	), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(users); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(rels); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := users.Insert(types.Row{types.NewInt(i), types.NewString("u"), types.NewString("2000")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rels.Insert(types.Row{types.NewInt(10), types.NewInt(1), types.NewInt(2), types.NewString("d")}); err != nil {
		t.Fatal(err)
	}
	if _, err := rels.Insert(types.Row{types.NewInt(11), types.NewInt(2), types.NewInt(3), types.NewString("d")}); err != nil {
		t.Fatal(err)
	}
	gv, err := NewGraphView("SocialNetwork", false, users, rels,
		[]AttrMap{{Name: "ID", Source: "uid"}, {Name: "lstname", Source: "lname"}},
		[]AttrMap{{Name: "ID", Source: "relid"}, {Name: "FROM", Source: "uid1"},
			{Name: "TO", Source: "uid2"}, {Name: "sdate", Source: "sdate"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGraphView(gv); err != nil {
		t.Fatal(err)
	}
	return c, users, rels, gv
}

func TestGraphViewBuild(t *testing.T) {
	_, _, _, gv := socialFixture(t)
	if gv.Version().NumVertices() != 3 || gv.Version().NumEdges() != 2 {
		t.Fatalf("topology: %d vertices %d edges", gv.Version().NumVertices(), gv.Version().NumEdges())
	}
	v := gv.Version().Vertex(2)
	if v == nil {
		t.Fatal("missing vertex 2")
	}
	row, err := gv.Live().VertexRow(v)
	if err != nil {
		t.Fatal(err)
	}
	// Declared attrs (ID, lstname) + FanOut + FanIn.
	if len(row) != 4 || row[0].I != 2 || row[1].S != "u" {
		t.Fatalf("vertex row: %v", row)
	}
	// Undirected: degree 2 both ways.
	if row[2].I != 2 || row[3].I != 2 {
		t.Errorf("fan props: %v", row)
	}
	e := gv.Version().Graph().Edge(10)
	erow, err := gv.Live().EdgeRow(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(erow) != 4 || erow[0].I != 10 || erow[1].I != 1 || erow[2].I != 2 {
		t.Fatalf("edge row: %v", erow)
	}
}

func TestGraphViewAttrAccess(t *testing.T) {
	_, _, _, gv := socialFixture(t)
	at := gv.Live()
	read := func(elem expr.ElemKind, id int64, name string) (types.Value, error) {
		ref, err := gv.ResolveAttr(elem, name)
		if err != nil {
			return types.Null(), err
		}
		if elem == expr.ElemVertexes {
			return at.VertexAttr(at.Topo.Vertex(id), ref)
		}
		return at.EdgeAttr(at.Topo.Graph().Edge(id), ref)
	}
	got, err := read(expr.ElemVertexes, 1, "lstname")
	if err != nil || got.S != "u" {
		t.Errorf("lstname = %v, %v", got, err)
	}
	got, err = read(expr.ElemVertexes, 1, "fanout")
	if err != nil || got.I != 1 {
		t.Errorf("fanout = %v, %v", got, err)
	}
	if _, err := read(expr.ElemVertexes, 1, "nope"); err == nil {
		t.Error("unknown vertex attr accepted")
	}
	got, err = read(expr.ElemEdges, 10, "sdate")
	if err != nil || got.S != "d" {
		t.Errorf("sdate = %v, %v", got, err)
	}
	if _, err := read(expr.ElemEdges, 10, "nope"); err == nil {
		t.Error("unknown edge attr accepted")
	}
	// The one by-name reader agrees with the resolved one.
	if got, err := gv.EdgeAttrValue(gv.Version().Graph().Edge(10), "SDATE"); err != nil || got.S != "d" {
		t.Errorf("EdgeAttrValue(sdate) = %v, %v", got, err)
	}
	if _, err := gv.EdgeAttrValue(gv.Version().Graph().Edge(10), "nope"); err == nil {
		t.Error("EdgeAttrValue accepted an unknown attr")
	}
	// FanIn/FanOut are vertex properties only.
	if _, err := gv.ResolveAttr(expr.ElemEdges, "FANIN"); err == nil {
		t.Error("FANIN resolved as an edge attribute")
	}
	for _, tc := range []struct {
		elem expr.ElemKind
		name string
		kind types.Kind
	}{
		{expr.ElemVertexes, "FANIN", types.KindInt},
		{expr.ElemVertexes, "lstname", types.KindString},
		{expr.ElemEdges, "ID", types.KindInt},
		{expr.ElemEdges, "sdate", types.KindString},
	} {
		if ref, err := gv.ResolveAttr(tc.elem, tc.name); err != nil || ref.Kind != tc.kind {
			t.Errorf("ResolveAttr(%s) kind = %v, %v; want %v", tc.name, ref.Kind, err, tc.kind)
		}
	}
}

func TestGraphViewValidation(t *testing.T) {
	_, users, rels, _ := socialFixture(t)
	// Missing ID declaration.
	if _, err := NewGraphView("g2", true, users, rels,
		[]AttrMap{{Name: "x", Source: "uid"}},
		[]AttrMap{{Name: "ID", Source: "relid"}, {Name: "FROM", Source: "uid1"}, {Name: "TO", Source: "uid2"}}); err == nil {
		t.Error("missing vertex ID accepted")
	}
	// Non-integer ID column.
	if _, err := NewGraphView("g3", true, users, rels,
		[]AttrMap{{Name: "ID", Source: "lname"}},
		[]AttrMap{{Name: "ID", Source: "relid"}, {Name: "FROM", Source: "uid1"}, {Name: "TO", Source: "uid2"}}); err == nil {
		t.Error("string ID column accepted")
	}
	// Unknown source column.
	if _, err := NewGraphView("g4", true, users, rels,
		[]AttrMap{{Name: "ID", Source: "ghost"}},
		[]AttrMap{{Name: "ID", Source: "relid"}, {Name: "FROM", Source: "uid1"}, {Name: "TO", Source: "uid2"}}); err == nil {
		t.Error("unknown source column accepted")
	}
	// Missing FROM/TO.
	if _, err := NewGraphView("g5", true, users, rels,
		[]AttrMap{{Name: "ID", Source: "uid"}},
		[]AttrMap{{Name: "ID", Source: "relid"}}); err == nil {
		t.Error("missing FROM/TO accepted")
	}
	// Exposed names are unique per element kind, case-insensitively, and
	// FanOut/FanIn are reserved for the computed vertex properties.
	edges := []AttrMap{{Name: "ID", Source: "relid"}, {Name: "FROM", Source: "uid1"}, {Name: "TO", Source: "uid2"}}
	for name, tc := range map[string]struct{ v, e []AttrMap }{
		"vertex attr named FanOut": {v: []AttrMap{{Name: "ID", Source: "uid"}, {Name: "FanOut", Source: "uid"}}, e: edges},
		"vertex attr named fanin":  {v: []AttrMap{{Name: "ID", Source: "uid"}, {Name: "fanin", Source: "lname"}}, e: edges},
		"duplicate vertex attr": {v: []AttrMap{{Name: "ID", Source: "uid"}, {Name: "x", Source: "lname"},
			{Name: "X", Source: "uid"}}, e: edges},
		"duplicate vertex ID": {v: []AttrMap{{Name: "ID", Source: "uid"}, {Name: "id", Source: "uid"}}, e: edges},
		"duplicate edge attr": {v: []AttrMap{{Name: "ID", Source: "uid"}},
			e: append(append([]AttrMap(nil), edges...), AttrMap{Name: "w", Source: "sdate"}, AttrMap{Name: "w", Source: "relid"})},
	} {
		if _, err := NewGraphView("g7", true, users, rels, tc.v, tc.e); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A FanOut edge attribute is legal: edges have no computed properties.
	if _, err := NewGraphView("g8", true, users, rels, []AttrMap{{Name: "ID", Source: "uid"}},
		append(append([]AttrMap(nil), edges...), AttrMap{Name: "FanOut", Source: "relid"})); err != nil {
		t.Errorf("edge attr named FanOut rejected: %v", err)
	}
	// Edge referencing a missing vertex fails the build.
	if _, err := rels.Insert(types.Row{types.NewInt(99), types.NewInt(1), types.NewInt(42), types.NewString("d")}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGraphView("g6", true, users, rels,
		[]AttrMap{{Name: "ID", Source: "uid"}},
		[]AttrMap{{Name: "ID", Source: "relid"}, {Name: "FROM", Source: "uid1"}, {Name: "TO", Source: "uid2"}}); err == nil {
		t.Error("dangling edge endpoint accepted")
	}
}

func TestCatalogNamespaces(t *testing.T) {
	c, users, rels, gv := socialFixture(t)
	if _, ok := c.Table("USERS"); !ok {
		t.Error("case-insensitive table lookup failed")
	}
	if _, ok := c.GraphView("socialnetwork"); !ok {
		t.Error("case-insensitive view lookup failed")
	}
	if err := c.CreateTable(users); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := c.RegisterGraphView(gv); err == nil {
		t.Error("duplicate view accepted")
	}
	// Table/view name collision.
	tt, _ := storage.NewTable("SocialNetwork", users.Schema(), nil)
	if err := c.CreateTable(tt); err == nil {
		t.Error("table colliding with view name accepted")
	}
	gv2, err := NewGraphView("Users", false, users, rels, gv.VertexAttrs, gv.EdgeAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGraphView(gv2); err == nil {
		t.Error("view colliding with table name accepted")
	}
	if got := c.Tables(); len(got) != 2 {
		t.Errorf("Tables() = %v", got)
	}
	if got := c.GraphViews(); len(got) != 1 || got[0] != "SocialNetwork" {
		t.Errorf("GraphViews() = %v", got)
	}
}

func TestDependencyTracking(t *testing.T) {
	c, _, _, gv := socialFixture(t)
	if vs := c.DependentViews("users"); len(vs) != 1 || vs[0] != gv {
		t.Errorf("deps(users) = %v", vs)
	}
	if vs := c.DependentViews("Relationships"); len(vs) != 1 {
		t.Errorf("deps(rels) = %v", vs)
	}
	if err := c.DropTable("Users"); err == nil || !strings.Contains(err.Error(), "SocialNetwork") {
		t.Errorf("drop of depended-on table: %v", err)
	}
	if err := c.DropGraphView("SocialNetwork"); err != nil {
		t.Fatal(err)
	}
	if vs := c.DependentViews("users"); len(vs) != 0 {
		t.Errorf("deps after view drop = %v", vs)
	}
	if err := c.DropTable("Users"); err != nil {
		t.Errorf("drop after view removal: %v", err)
	}
	if err := c.DropTable("Users"); err == nil {
		t.Error("double drop accepted")
	}
	if err := c.DropGraphView("SocialNetwork"); err == nil {
		t.Error("double view drop accepted")
	}
}

func TestOnInsertMaintainsTopology(t *testing.T) {
	_, users, rels, gv := socialFixture(t)
	id, err := users.Insert(types.Row{types.NewInt(4), types.NewString("new"), types.NewString("01")})
	if err != nil {
		t.Fatal(err)
	}
	row, _ := users.Get(id)
	if err := gv.OnInsert("Users", id, row); err != nil {
		t.Fatal(err)
	}
	if gv.Version().Vertex(4) == nil {
		t.Fatal("vertex not added")
	}
	eid, err := rels.Insert(types.Row{types.NewInt(12), types.NewInt(4), types.NewInt(1), types.NewString("d")})
	if err != nil {
		t.Fatal(err)
	}
	erow, _ := rels.Get(eid)
	if err := gv.OnInsert("Relationships", eid, erow); err != nil {
		t.Fatal(err)
	}
	if gv.Version().Graph().Edge(12) == nil {
		t.Fatal("edge not added")
	}
	// Insert referencing a missing endpoint errors.
	eid2, _ := rels.Insert(types.Row{types.NewInt(13), types.NewInt(4), types.NewInt(99), types.NewString("d")})
	erow2, _ := rels.Get(eid2)
	if err := gv.OnInsert("Relationships", eid2, erow2); err == nil {
		t.Error("dangling edge insert accepted")
	}
}

func TestOnDeleteAndIncidentEdges(t *testing.T) {
	_, _, _, gv := socialFixture(t)
	inc := gv.IncidentEdges(2)
	if len(inc) != 2 {
		t.Fatalf("incident edges = %v", inc)
	}
	if gv.IncidentEdges(42) != nil {
		t.Error("incidence of missing vertex non-nil")
	}
	if err := gv.OnDelete("Relationships", types.Row{types.NewInt(10), types.NewInt(1), types.NewInt(2), types.NewString("d")}); err != nil {
		t.Fatal(err)
	}
	if gv.Version().Graph().Edge(10) != nil {
		t.Error("edge not removed")
	}
	if err := gv.OnDelete("Users", types.Row{types.NewInt(1), types.NewString("u"), types.NewString("2000")}); err != nil {
		t.Fatal(err)
	}
	if gv.Version().Vertex(1) != nil {
		t.Error("vertex not removed")
	}
}

func TestOnUpdateRenamesAndRewires(t *testing.T) {
	_, _, _, gv := socialFixture(t)
	// Vertex id change renames the topology vertex (§3.3.1).
	oldRow := types.Row{types.NewInt(3), types.NewString("u"), types.NewString("2000")}
	newRow := types.Row{types.NewInt(30), types.NewString("u"), types.NewString("2000")}
	if err := gv.OnUpdate("Users", 3, oldRow, newRow); err != nil {
		t.Fatal(err)
	}
	if gv.Version().Vertex(3) != nil || gv.Version().Vertex(30) == nil {
		t.Error("vertex rename failed")
	}
	// Edge endpoint change rewires.
	oldE := types.Row{types.NewInt(10), types.NewInt(1), types.NewInt(2), types.NewString("d")}
	newE := types.Row{types.NewInt(10), types.NewInt(1), types.NewInt(30), types.NewString("d")}
	if err := gv.OnUpdate("Relationships", 1, oldE, newE); err != nil {
		t.Fatal(err)
	}
	e := gv.Version().Graph().Edge(10)
	if e == nil || e.To.ID != 30 {
		t.Error("edge rewire failed")
	}
	// Attribute-only change leaves the topology alone.
	if err := gv.OnUpdate("Relationships", 1, newE,
		types.Row{types.NewInt(10), types.NewInt(1), types.NewInt(30), types.NewString("later")}); err != nil {
		t.Fatal(err)
	}
	if gv.Version().NumEdges() != 2 {
		t.Error("attr update disturbed topology")
	}
}

func TestResolveRelation(t *testing.T) {
	c, users, _, gv := socialFixture(t)
	got, err := c.ResolveRelation("users")
	if err != nil || got.(*storage.Table) != users {
		t.Errorf("resolve table: %v %v", got, err)
	}
	got, err = c.ResolveRelation("SocialNetwork")
	if err != nil || got.(*GraphView) != gv {
		t.Errorf("resolve view: %v %v", got, err)
	}
	if _, err := c.ResolveRelation("ghost"); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestCheckColumnKinds(t *testing.T) {
	_, users, _, _ := socialFixture(t)
	pos, kinds, err := CheckColumnKinds(users, []string{"uid", "lname"})
	if err != nil || pos[0] != 0 || pos[1] != 1 || kinds[1] != types.KindString {
		t.Errorf("CheckColumnKinds: %v %v %v", pos, kinds, err)
	}
	if _, _, err := CheckColumnKinds(users, []string{"ghost"}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestMatViewRegistry(t *testing.T) {
	c, users, rels, gv := socialFixture(t)
	_ = rels
	backing, err := storage.NewTable("VIP", types.NewSchema(
		types.Column{Qualifier: "VIP", Name: "uid", Type: types.KindInt}), nil)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := NewMatView("VIP", users, backing, []int{0}, nil, "CREATE MATERIALIZED VIEW VIP AS SELECT uid FROM Users")
	if err != nil {
		t.Fatal(err)
	}
	// Unfiltered view materializes every base row.
	if mv.Table().Len() != users.Len() {
		t.Fatalf("materialized %d of %d rows", mv.Table().Len(), users.Len())
	}
	if err := c.RegisterMatView(mv); err != nil {
		t.Fatal(err)
	}
	if !c.IsMatViewTable("vip") || c.IsMatViewTable("Users") {
		t.Error("IsMatViewTable wrong")
	}
	if got, ok := c.MatView("vip"); !ok || got != mv {
		t.Error("MatView lookup failed")
	}
	if got := c.MatViews(); len(got) != 1 || got[0] != "VIP" {
		t.Errorf("MatViews: %v", got)
	}
	if ds := c.DependentMatViews("USERS"); len(ds) != 1 || ds[0] != mv {
		t.Errorf("deps: %v", ds)
	}
	// The backing joins the table namespace.
	if _, ok := c.Table("VIP"); !ok {
		t.Error("backing table not visible")
	}
	// Base cannot be dropped while the view exists (also pinned by the
	// graph view from the fixture).
	if err := c.DropTable("Users"); err == nil {
		t.Error("dropped matview base")
	}
	// The backing table cannot be dropped directly.
	if err := c.DropTable("VIP"); err == nil {
		t.Error("dropped matview backing via DropTable")
	}
	// A graph view over the matview pins it... simulate by hand-registering
	// a second matview over VIP.
	backing2, _ := storage.NewTable("VIP2", types.NewSchema(
		types.Column{Qualifier: "VIP2", Name: "uid", Type: types.KindInt}), nil)
	mv2, err := NewMatView("VIP2", mv.Table(), backing2, []int{0}, nil, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterMatView(mv2); err != nil {
		t.Fatal(err)
	}
	if err := c.DropMatView("VIP"); err == nil {
		t.Error("dropped matview with dependent matview")
	}
	if err := c.DropMatView("VIP2"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropMatView("VIP"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropMatView("VIP"); err == nil {
		t.Error("double drop accepted")
	}
	_ = gv
}

func TestAttrSourcePositions(t *testing.T) {
	_, _, _, gv := socialFixture(t)
	if ref, err := gv.ResolveAttr(expr.ElemEdges, "sdate"); err != nil || ref.Src != expr.AttrColumn || ref.Pos != 3 {
		t.Errorf("sdate ref: %+v %v", ref, err)
	}
	if _, err := gv.ResolveAttr(expr.ElemEdges, "ghost"); err == nil {
		t.Error("ghost edge attr resolved")
	}
	if ref, err := gv.ResolveAttr(expr.ElemVertexes, "lstname"); err != nil || ref.Src != expr.AttrColumn || ref.Pos != 1 {
		t.Errorf("lstname ref: %+v %v", ref, err)
	}
	// Computed properties have no source column.
	if ref, err := gv.ResolveAttr(expr.ElemVertexes, "FANOUT"); err != nil || ref.Src != expr.AttrFanOut {
		t.Errorf("FANOUT ref: %+v %v", ref, err)
	}
}
