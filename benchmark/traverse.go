package main

import (
	"strconv"
	"strings"

	"grfusion/internal/core"
	"grfusion/internal/server"
	"grfusion/internal/types"
)

// traverse.read: prepared path queries over a static graph view. The graph
// kernels and the executor do the work; the parser, planner, WAL and
// version publishing are idle apart from one probe write per probeEvery ops
// to a table outside the view (see README: the builder's contract wants
// every latency family on every workload).

const (
	tReach = iota
	tEnum3
	tEnum4
	tShortest
	tJoin
	tPageRank
	tVisit
)

var traverseKinds = []opKind{
	tReach:    {"reach", read},
	tEnum3:    {"enum3", read},
	tEnum4:    {"enum4", read},
	tShortest: {"shortest", read},
	tJoin:     {"join", read},
	tPageRank: {"pagerank", read},
	tVisit:    {"visit", write},
}

// traverseTemplates are the prepared statements, indexed by op kind.
var traverseTemplates = []string{
	tReach:    `SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1`,
	tEnum3:    `SELECT COUNT(*) FROM g.Paths PS HINT(BFS) WHERE PS.StartVertex.Id = ? AND PS.Length <= 3`,
	tEnum4:    `SELECT COUNT(*) FROM g.Paths PS HINT(BFS) WHERE PS.StartVertex.Id = ? AND PS.Length <= 4`,
	tShortest: `SELECT TOP 1 SUM(PS.Edges.w), PS.Length FROM g.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?`,
	tJoin:     `SELECT COUNT(*) FROM v U, g.Paths PS HINT(BFS) WHERE U.grp = ? AND PS.StartVertex.Id = U.id AND PS.Length <= 2 AND PS.Edges[0..*].sel < 50`,
	tPageRank: `SELECT MAX(PR.rank), COUNT(*) FROM g.PAGERANK(0.85, 20) PR`,
	tVisit:    `UPDATE visits SET n = ? WHERE id = ?`,
}

const (
	// probeEvery: each client sends one probe write after probeEvery-1 reads.
	probeEvery = 50
	visitRows  = 256
	joinSelCut = 50 // the pushed predicate: Edges[0..*].sel < joinSelCut
)

var graphDDL = []string{
	`CREATE TABLE v (id BIGINT PRIMARY KEY, label VARCHAR, grp BIGINT)`,
	`CREATE INDEX v_grp ON v (grp)`,
	`CREATE TABLE e (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE, sel BIGINT)`,
}

const graphViewDDL = `CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id, label = label, grp = grp) FROM v ` +
	`EDGES(ID = id, FROM = src, TO = dst, w = w, sel = sel) FROM e`

func vertexRow(i int) types.Row {
	return types.Row{types.NewInt(int64(i)), types.NewString(vertexLabel(i)), types.NewInt(int64(i % vertexGroups))}
}

func edgeRowValues(id int, e edgeRow) types.Row {
	return types.Row{types.NewInt(int64(id)), types.NewInt(int64(e.src)), types.NewInt(int64(e.dst)),
		types.NewFloat(float64(e.w)), types.NewInt(int64(e.sel))}
}

// loadGraph creates the vertex and edge tables, bulk-loads them by COPY and
// builds the graph view over them.
func loadGraph(c *conn, g *graphData) error {
	if err := c.script(graphDDL...); err != nil {
		return err
	}
	if err := c.copyRows("v", g.nv, vertexRow); err != nil {
		return err
	}
	if err := c.copyRows("e", len(g.edges), func(i int) types.Row { return edgeRowValues(i, g.edges[i]) }); err != nil {
		return err
	}
	return c.script(graphViewDDL)
}

type traverseRead struct {
	seed    uint64
	g       *graphData
	ref     *refGraph
	pools   [tVisit][]*op // precomputed ops with reference answers, per read kind
	nclient int
}

func newTraverseRead(seed uint64, clients int) *traverseRead {
	w := &traverseRead{seed: seed, g: genGraph(seed, graphV, graphE), nclient: clients}
	w.ref = newRefGraph(w.g)
	r := newPRNG(seed, "traverse/pools")
	ref := w.ref

	// Sources worth traversing from: out-degree >= 3.
	var sources []int32
	for v := range ref.out {
		if len(ref.out[v]) >= 3 {
			sources = append(sources, int32(v))
		}
	}
	pick := func() int32 { return sources[r.intn(len(sources))] }
	I := func(v int32) types.Value { return types.NewInt(int64(v)) }

	// Reachability and shortest path: connected pairs, a few targets per
	// source so one reference traversal serves several ops.
	const pairSources, targetsPer = 48, 8
	for i := 0; i < pairSources; i++ {
		src := pick()
		hops, cost := ref.hops(src), ref.cheapest(src)
		var reach []int32
		for v, d := range hops {
			if d > 0 {
				reach = append(reach, int32(v))
			}
		}
		for j := 0; j < targetsPer; j++ {
			dst := reach[r.intn(len(reach))]
			w.pools[tReach] = append(w.pools[tReach], &op{
				kind: tReach, si: tReach, text: traverseTemplates[tReach], params: []types.Value{I(src), I(dst)},
				want:  expect{custom: func(res *server.Result) bool { return ref.checkPathReply(res, src, dst) }},
				probe: layerProbe{kernel: kernelReach, src: src, dst: dst},
			})
			spDst := reach[r.intn(len(reach))]
			w.pools[tShortest] = append(w.pools[tShortest], &op{
				kind: tShortest, si: tShortest, text: traverseTemplates[tShortest], params: []types.Value{I(src), I(spDst)},
				want:  wantRows(1, types.NewFloat(float64(cost[spDst]))),
				probe: layerProbe{kernel: kernelShortest, src: src, dst: spDst},
			})
		}
	}
	// Bounded enumeration from sources with out-degree >= 3.
	for i := 0; i < 256; i++ {
		src := pick()
		for kind, maxLen := tEnum3, 3; kind <= tEnum4; kind, maxLen = kind+1, maxLen+1 {
			w.pools[kind] = append(w.pools[kind], &op{
				kind: uint8(kind), si: kind, text: traverseTemplates[kind], params: []types.Value{I(src)},
				want:  wantRows(1, types.NewInt(int64(ref.within(src, maxLen, 100)))),
				probe: layerProbe{kernel: kernelEnum, src: src, maxLen: maxLen, selBelow: 100},
			})
		}
	}
	// Relational outer (one vertex group) probing a 2-hop PathScan with the
	// pushed predicate sel < joinSelCut.
	for grp := 0; grp < vertexGroups; grp++ {
		total := 0
		for v := grp; v < w.g.nv; v += vertexGroups {
			total += ref.within(int32(v), 2, joinSelCut)
		}
		w.pools[tJoin] = append(w.pools[tJoin], &op{
			kind: tJoin, si: tJoin, text: traverseTemplates[tJoin], params: []types.Value{types.NewInt(int64(grp))},
			want:  wantRows(1, types.NewInt(int64(total))),
			probe: layerProbe{kernel: kernelJoin, src: int32(grp), maxLen: 2, selBelow: joinSelCut},
		})
	}
	w.pools[tPageRank] = []*op{{
		kind: tPageRank, si: tPageRank, text: traverseTemplates[tPageRank],
		want:  wantRows(1, types.NewFloat(ref.pageRankMax(0.85, 20, 1e-9))),
		probe: layerProbe{kernel: kernelPageRank},
	}}
	return w
}

// checkPathReply accepts a reachability reply when it is one row holding a
// real path of the reference graph from src to dst. Any such path is a
// right answer: the query asks whether one exists, not for a particular one.
func (r *refGraph) checkPathReply(res *server.Result, src, dst int32) bool {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return false
	}
	verts, edges, ok := parsePathString(res.Rows[0][0].S)
	return ok && r.validPath(verts, edges, src, dst)
}

// parsePathString reads the PathString form "5-[43241]->4069-[97273]->13620".
func parsePathString(s string) (verts, edges []int64, ok bool) {
	for _, hop := range strings.Split(s, "->") {
		vs, es, hasEdge := strings.Cut(hop, "-[")
		v, err := strconv.ParseInt(vs, 10, 64)
		if err != nil {
			return nil, nil, false
		}
		verts = append(verts, v)
		if hasEdge {
			e, err := strconv.ParseInt(strings.TrimSuffix(es, "]"), 10, 64)
			if err != nil {
				return nil, nil, false
			}
			edges = append(edges, e)
		}
	}
	return verts, edges, true
}

func (w *traverseRead) name() string            { return "traverse.read" }
func (w *traverseRead) kinds() []opKind         { return traverseKinds }
func (w *traverseRead) templates() []string     { return traverseTemplates }
func (w *traverseRead) traceStream() func() *op { return w.stream(0) }

func (w *traverseRead) setup() (*system, error) {
	sys, err := serve(core.New(core.Options{}), w.nclient)
	if err != nil {
		return nil, err
	}
	admin := sys.conns[0]
	err = loadGraph(admin, w.g)
	if err == nil {
		err = admin.script(`CREATE TABLE visits (id BIGINT PRIMARY KEY, n BIGINT)`)
	}
	if err == nil {
		err = admin.copyRows("visits", visitRows, func(i int) types.Row {
			return types.Row{types.NewInt(int64(i)), types.NewInt(0)}
		})
	}
	for _, c := range sys.conns {
		if err == nil {
			err = c.prepare(traverseTemplates...)
		}
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// stream is client i's op sequence: the ISSUE's read mix, with every
// probeEvery-th op replaced by a probe write to the client's own rows of
// visits (so its reference value needs no coordination).
func (w *traverseRead) stream(client int) func() *op {
	r := newPRNG(w.seed, "traverse/client"+strconv.Itoa(client))
	n := 0
	return func() *op {
		n++
		if n%probeEvery == 0 {
			id := int64(r.intn(visitRows/w.nclient)*w.nclient + client)
			return &op{kind: tVisit, si: tVisit, text: traverseTemplates[tVisit],
				params: []types.Value{types.NewInt(int64(n)), types.NewInt(id)},
				want:   wantAffected(1),
				probe:  layerProbe{rel: relUpdate, table: "visits", key: id}}
		}
		var kind int
		switch p := r.intn(100); {
		case p < 30:
			kind = tReach
		case p < 45:
			kind = tEnum3
		case p < 60:
			kind = tEnum4
		case p < 80:
			kind = tShortest
		case p < 95:
			kind = tJoin
		default:
			kind = tPageRank
		}
		pool := w.pools[kind]
		return pool[r.intn(len(pool))]
	}
}

func (w *traverseRead) drive(sys *system, win window) []*clientLog {
	return driveClosed(sys, win, w.stream)
}

// verify: the graph is static, so every reply was already checked in the
// window; what remains is that the probe writes did not disturb the view.
func (w *traverseRead) verify(sys *system) (attempted, failed int) {
	m := metricsOf(sys.eng)
	attempted = 2
	if m["graphview.g.edges"] != int64(len(w.g.edges)) || m["graphview.g.vertices"] != int64(w.g.nv) {
		failed++
	}
	if m["graphview.g.csr_builds"] != 1 {
		failed++ // a static view builds its CSR once
	}
	return attempted, failed
}
