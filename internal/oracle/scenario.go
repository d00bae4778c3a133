package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"grfusion/internal/core"
	"grfusion/internal/datagen"
)

// A scenario is one randomized database: a schema (random table, view, and
// column names, shuffled column order, optional decoy columns and
// secondary index), an initial graph drawn from one of the generator
// families, and the workload shape. Scenario generation is a pure function
// of its seed, so a failing round replays from `-seed <roundSeed> -rounds 1`.
type scenario struct {
	seed     int64
	directed bool

	vt, et, gv string // vertex table, edge table, graph view names

	// vCols/eCols map logical column roles to physical column names. The
	// exposed graph-view attribute names are fixed (name, w, sel, lbl) so
	// the check queries are schema-independent; what varies is the
	// relational layer underneath.
	vCols, eCols   map[string]string
	vOrder, eOrder []string // logical roles in physical declaration order

	indexOn string // "", "src", or "sel": optional secondary index on et

	workers     int // engine worker-pool size (the round's default)
	batches     int
	opsPerBatch int

	initial *datagen.Dataset

	// prepared holds the templates the last engine newEngine built
	// prepared (checkPrepared).
	prepared preparedSet
}

var (
	vtNames  = []string{"V", "Nodes", "Person", "Vert"}
	etNames  = []string{"E", "Links", "Knows", "Edg"}
	gvNames  = []string{"G", "Net", "Gr", "Soc"}
	vidNames = []string{"vid", "id", "nid"}
	vnmNames = []string{"vname", "tag", "title"}
	eidNames = []string{"eid", "id", "rid"}
	srcNames = []string{"src", "a", "head"}
	dstNames = []string{"dst", "b", "tail"}
	wNames   = []string{"w", "cost", "dist"}
	selNames = []string{"sel", "s", "pct"}
	lblNames = []string{"lbl", "kind", "cat"}
)

// buildScenario derives a scenario from a round seed. Every rng draw below
// happens unconditionally and in a fixed order, so generation is identical
// between the recording run and minimization replays.
func buildScenario(cfg Config, roundSeed int64) *scenario {
	rng := rand.New(rand.NewSource(roundSeed))
	sc := &scenario{seed: roundSeed}

	i := rng.Intn(len(vtNames))
	sc.vt, sc.et, sc.gv = vtNames[i], etNames[i], gvNames[rng.Intn(len(gvNames))]

	sc.vCols = map[string]string{
		"vid":  vidNames[rng.Intn(len(vidNames))],
		"name": vnmNames[rng.Intn(len(vnmNames))],
	}
	sc.eCols = map[string]string{
		"eid": eidNames[rng.Intn(len(eidNames))],
		"src": srcNames[rng.Intn(len(srcNames))],
		"dst": dstNames[rng.Intn(len(dstNames))],
		"w":   wNames[rng.Intn(len(wNames))],
		"sel": selNames[rng.Intn(len(selNames))],
		"lbl": lblNames[rng.Intn(len(lblNames))],
	}
	sc.vOrder = []string{"vid", "name"}
	if rng.Intn(2) == 0 { // decoy column the view does not map
		sc.vCols["pad"] = "pad_v"
		sc.vOrder = append(sc.vOrder, "pad")
	}
	rng.Shuffle(len(sc.vOrder), func(a, b int) { sc.vOrder[a], sc.vOrder[b] = sc.vOrder[b], sc.vOrder[a] })
	sc.eOrder = []string{"eid", "src", "dst", "w", "sel", "lbl"}
	if rng.Intn(2) == 0 {
		sc.eCols["pad"] = "pad_e"
		sc.eOrder = append(sc.eOrder, "pad")
	}
	rng.Shuffle(len(sc.eOrder), func(a, b int) { sc.eOrder[a], sc.eOrder[b] = sc.eOrder[b], sc.eOrder[a] })

	switch rng.Intn(3) {
	case 0:
		sc.indexOn = "src"
	case 1:
		sc.indexOn = "sel"
	}

	sc.workers = cfg.Workers
	sc.batches = 3
	sc.opsPerBatch = 10 + rng.Intn(8)

	// Initial graph: uniform-random most of the time for maximal shape
	// variety, the structured generator families occasionally.
	kind := rng.Intn(6)
	n := 10 + rng.Intn(22)
	m := n + rng.Intn(2*n)
	gseed := rng.Int63()
	switch kind {
	case 0:
		sc.initial = datagen.Road(3+rng.Intn(3), 3+rng.Intn(3), gseed)
	case 1:
		sc.initial = datagen.DBLP(2+rng.Intn(2), 4+rng.Intn(3), gseed)
	case 2:
		sc.initial = datagen.Twitter(n, 2, gseed)
	default:
		sc.initial = datagen.Uniform(n, m, rng.Intn(2) == 0, gseed)
	}
	sc.directed = sc.initial.Directed
	// Integer-valued weights keep cross-engine cost comparisons exact.
	for i := range sc.initial.Edges {
		sc.initial.Edges[i].Weight = float64(1 + rng.Intn(9))
	}
	return sc
}

// padValue is the literal stored in decoy columns.
func padValue(role string) string {
	if role == "pad_e" {
		return "'x'"
	}
	return "0"
}

// vertexValues renders one vertex tuple in physical column order.
func (sc *scenario) vertexValues(v datagen.Vertex) string {
	parts := make([]string, len(sc.vOrder))
	for i, role := range sc.vOrder {
		switch role {
		case "vid":
			parts[i] = fmt.Sprintf("%d", v.ID)
		case "name":
			parts[i] = fmt.Sprintf("'%s'", v.Name)
		default:
			parts[i] = padValue(sc.vCols[role])
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// edgeValues renders one edge tuple in physical column order.
func (sc *scenario) edgeValues(e datagen.Edge) string {
	parts := make([]string, len(sc.eOrder))
	for i, role := range sc.eOrder {
		switch role {
		case "eid":
			parts[i] = fmt.Sprintf("%d", e.ID)
		case "src":
			parts[i] = fmt.Sprintf("%d", e.Src)
		case "dst":
			parts[i] = fmt.Sprintf("%d", e.Dst)
		case "w":
			parts[i] = fmt.Sprintf("%g", e.Weight)
		case "sel":
			parts[i] = fmt.Sprintf("%d", e.Sel)
		case "lbl":
			parts[i] = fmt.Sprintf("'%s'", e.Label)
		default:
			parts[i] = padValue(sc.eCols[role])
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// setupSQL renders the schema DDL and the initial bulk load.
func (sc *scenario) setupSQL() []string {
	var stmts []string

	colDef := func(role, phys string) string {
		switch role {
		case "vid", "eid":
			return phys + " BIGINT PRIMARY KEY"
		case "src", "dst", "sel":
			return phys + " BIGINT"
		case "w":
			return phys + " DOUBLE"
		case "name", "lbl":
			return phys + " VARCHAR"
		default:
			if phys == "pad_e" {
				return phys + " VARCHAR"
			}
			return phys + " BIGINT"
		}
	}
	var vdefs []string
	for _, role := range sc.vOrder {
		vdefs = append(vdefs, colDef(role, sc.vCols[role]))
	}
	stmts = append(stmts, fmt.Sprintf("CREATE TABLE %s (%s)", sc.vt, strings.Join(vdefs, ", ")))
	var edefs []string
	for _, role := range sc.eOrder {
		edefs = append(edefs, colDef(role, sc.eCols[role]))
	}
	stmts = append(stmts, fmt.Sprintf("CREATE TABLE %s (%s)", sc.et, strings.Join(edefs, ", ")))
	if sc.indexOn != "" {
		stmts = append(stmts, fmt.Sprintf("CREATE INDEX ix_%s ON %s (%s)",
			sc.eCols[sc.indexOn], sc.et, sc.eCols[sc.indexOn]))
	}

	const batch = 128
	for i := 0; i < len(sc.initial.Vertices); i += batch {
		var vals []string
		for j := i; j < i+batch && j < len(sc.initial.Vertices); j++ {
			vals = append(vals, sc.vertexValues(sc.initial.Vertices[j]))
		}
		stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES %s", sc.vt, strings.Join(vals, ", ")))
	}
	for i := 0; i < len(sc.initial.Edges); i += batch {
		var vals []string
		for j := i; j < i+batch && j < len(sc.initial.Edges); j++ {
			vals = append(vals, sc.edgeValues(sc.initial.Edges[j]))
		}
		stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES %s", sc.et, strings.Join(vals, ", ")))
	}

	dir := "DIRECTED"
	if !sc.directed {
		dir = "UNDIRECTED"
	}
	stmts = append(stmts, fmt.Sprintf(
		"CREATE %s GRAPH VIEW %s VERTEXES(ID = %s, name = %s) FROM %s "+
			"EDGES(ID = %s, FROM = %s, TO = %s, w = %s, sel = %s, lbl = %s) FROM %s",
		dir, sc.gv, sc.vCols["vid"], sc.vCols["name"], sc.vt,
		sc.eCols["eid"], sc.eCols["src"], sc.eCols["dst"],
		sc.eCols["w"], sc.eCols["sel"], sc.eCols["lbl"], sc.et))
	return stmts
}

// newEngine builds a fresh engine loaded with the scenario schema and
// initial graph, and prepares the check templates on it once the view
// exists.
func (sc *scenario) newEngine() (*core.Engine, error) {
	eng := core.New(core.Options{Workers: sc.workers})
	for _, q := range sc.setupSQL() {
		if _, err := eng.Execute(q); err != nil {
			return nil, fmt.Errorf("setup %q: %v", firstLine(q), err)
		}
	}
	if err := sc.prepare(eng); err != nil {
		return nil, err
	}
	return eng, nil
}

// mutationSQL renders a mutation against the scenario schema.
func (sc *scenario) mutationSQL(m datagen.Mutation) string {
	switch m.Kind {
	case datagen.MutInsertVertex:
		return fmt.Sprintf("INSERT INTO %s VALUES %s", sc.vt, sc.vertexValues(m.V))
	case datagen.MutInsertEdge:
		return fmt.Sprintf("INSERT INTO %s VALUES %s", sc.et, sc.edgeValues(m.E))
	case datagen.MutDeleteVertex:
		return fmt.Sprintf("DELETE FROM %s WHERE %s = %d", sc.vt, sc.vCols["vid"], m.V.ID)
	case datagen.MutDeleteEdge:
		return fmt.Sprintf("DELETE FROM %s WHERE %s = %d", sc.et, sc.eCols["eid"], m.E.ID)
	case datagen.MutRewireEdge:
		return fmt.Sprintf("UPDATE %s SET %s = %d, %s = %d WHERE %s = %d",
			sc.et, sc.eCols["src"], m.E.Src, sc.eCols["dst"], m.E.Dst, sc.eCols["eid"], m.E.ID)
	case datagen.MutEdgeAttr:
		return fmt.Sprintf("UPDATE %s SET %s = %d, %s = %g WHERE %s = %d",
			sc.et, sc.eCols["sel"], m.E.Sel, sc.eCols["w"], m.E.Weight, sc.eCols["eid"], m.E.ID)
	case datagen.MutRenameVertex:
		return fmt.Sprintf("UPDATE %s SET %s = %d WHERE %s = %d",
			sc.vt, sc.vCols["vid"], m.NewID, sc.vCols["vid"], m.OldID)
	case datagen.MutRenameEdge:
		return fmt.Sprintf("UPDATE %s SET %s = %d WHERE %s = %d",
			sc.et, sc.eCols["eid"], m.NewID, sc.eCols["eid"], m.OldID)
	default:
		panic(fmt.Sprintf("oracle: unknown mutation kind %v", m.Kind))
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
