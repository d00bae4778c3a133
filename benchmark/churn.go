package main

import (
	"sync"
	"sync/atomic"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/server"
	"grfusion/internal/types"
)

// graph.churn: the traverse.read graph, written beside being read. One
// paced writer changes the edge table on a fixed schedule; one closed-loop
// reader counts 2-hop neighbourhoods. Every topology write publishes a
// version whose first read rebuilds the view's CSR.

const (
	cRead = iota
	cInsert
	cDelete
	cUpdate
)

var churnKinds = []opKind{
	cRead:   {"hop2", read},
	cInsert: {"edge_insert", write},
	cDelete: {"edge_delete", write},
	cUpdate: {"edge_update", write},
}

var churnTemplates = []string{
	cRead:   `SELECT COUNT(*) FROM g.Paths PS HINT(BFS) WHERE PS.StartVertex.Id = ? AND PS.Length <= 2`,
	cInsert: `INSERT INTO e VALUES (?, ?, ?, ?, ?)`,
	cDelete: `DELETE FROM e WHERE id = ?`,
	cUpdate: `UPDATE e SET sel = ? WHERE id = ?`,
}

// churnInterval is the writer's schedule: 5 writes/s. It is fixed, not
// closed-loop, so a faster write path cannot raise the publish rate and make
// the reader look worse.
const churnInterval = 200 * time.Millisecond

// churnWrite is one applied change of the edge table.
type churnWrite struct {
	kind uint8
	id   int
	edge edgeRow // cInsert
	sel  int32   // cUpdate
}

// churnReadRec is one reader reply kept for checking after the window: the
// reply must equal the reference count at some version the read could have
// seen, between the writes acknowledged before it was sent (lo) and those
// issued before its reply arrived (hi).
type churnReadRec struct {
	src    int32
	got    int64
	lo, hi int32
}

type graphChurn struct {
	seed    uint64
	g       *graphData
	sources []int32

	// Writer state: owned by the writer goroutine during the window.
	wr      *prng
	liveIDs []int32 // ids of live edges, for uniform picks
	nextID  int
	writes  []churnWrite
	issued  atomic.Int32 // writes sent
	acked   atomic.Int32 // writes acknowledged

	reads []churnReadRec // owned by the reader goroutine during the window
}

func newGraphChurn(seed uint64) *graphChurn {
	w := &graphChurn{seed: seed, g: genGraph(seed, graphV, graphE), wr: newPRNG(seed, "churn/writer")}
	ref := newRefGraph(w.g)
	r := newPRNG(seed, "churn/sources")
	var eligible []int32
	for v := range ref.out {
		if len(ref.out[v]) >= 3 {
			eligible = append(eligible, int32(v))
		}
	}
	for i := 0; i < 512; i++ {
		w.sources = append(w.sources, eligible[r.intn(len(eligible))])
	}
	w.liveIDs = make([]int32, len(w.g.edges))
	for i := range w.liveIDs {
		w.liveIDs[i] = int32(i)
	}
	w.nextID = len(w.g.edges)
	return w
}

func (w *graphChurn) name() string        { return "graph.churn" }
func (w *graphChurn) kinds() []opKind     { return churnKinds }
func (w *graphChurn) templates() []string { return churnTemplates }

// traceStreamEvery: the traced single-client stream sends one write after
// traceStreamEvery-1 reads, so a 2,000-op prefix holds 100 writes and 100
// first-reads-after-a-write.
const traceStreamEvery = 20

func (w *graphChurn) traceStream() func() *op {
	reads, n := w.readStream(), 0
	return func() *op {
		if n++; n%traceStreamEvery == 0 {
			return w.nextWrite()
		}
		return reads()
	}
}

func (w *graphChurn) setup() (*system, error) {
	sys, err := serve(core.New(core.Options{}), 2) // conns[0] reads, conns[1] writes
	if err != nil {
		return nil, err
	}
	err = loadGraph(sys.conns[0], w.g)
	for _, c := range sys.conns {
		if err == nil {
			err = c.prepare(churnTemplates...)
		}
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// nextWrite draws the writer's next op: 60% insert, 30% delete, 10% update
// of an edge attribute that leaves the topology alone. The op counts as
// issued from here and as acknowledged once its reply has been checked.
func (w *graphChurn) nextWrite() *op {
	r := w.wr
	I := func(x int) types.Value { return types.NewInt(int64(x)) }
	acked := expect{custom: func(res *server.Result) bool { w.acked.Add(1); return res.Affected == 1 }}
	w.issued.Add(1)
	switch p := r.intn(100); {
	case p < 60:
		e := edgeRow{src: int32(r.intn(graphV)), dst: int32(r.intn(graphV)),
			w: int32(1 + r.intn(maxWeight)), sel: int32(r.intn(100))}
		if e.dst == e.src {
			e.dst = (e.src + 1) % graphV
		}
		id := w.nextID
		w.nextID++
		w.liveIDs = append(w.liveIDs, int32(id))
		w.writes = append(w.writes, churnWrite{kind: cInsert, id: id, edge: e})
		return &op{kind: cInsert, si: cInsert, text: churnTemplates[cInsert],
			params: edgeRowValues(id, e), want: acked,
			probe: layerProbe{rel: relInsert, table: "e", key: int64(id), row: edgeRowValues(id, e)}}
	case p < 90:
		i := r.intn(len(w.liveIDs))
		id := int(w.liveIDs[i])
		w.liveIDs[i] = w.liveIDs[len(w.liveIDs)-1]
		w.liveIDs = w.liveIDs[:len(w.liveIDs)-1]
		w.writes = append(w.writes, churnWrite{kind: cDelete, id: id})
		return &op{kind: cDelete, si: cDelete, text: churnTemplates[cDelete],
			params: []types.Value{I(id)}, want: acked,
			probe: layerProbe{rel: relDelete, table: "e", key: int64(id)}}
	default:
		id := int(w.liveIDs[r.intn(len(w.liveIDs))])
		sel := r.intn(100)
		w.writes = append(w.writes, churnWrite{kind: cUpdate, id: id, sel: int32(sel)})
		return &op{kind: cUpdate, si: cUpdate, text: churnTemplates[cUpdate],
			params: []types.Value{I(sel), I(id)}, want: acked,
			probe: layerProbe{rel: relUpdate, table: "e", key: int64(id)}}
	}
}

// readStream draws the reader's ops; each reply is recorded for the
// after-window check.
func (w *graphChurn) readStream() func() *op {
	r := newPRNG(w.seed, "churn/reader")
	return func() *op {
		src := w.sources[r.intn(len(w.sources))]
		lo := w.acked.Load()
		return &op{kind: cRead, si: cRead, text: churnTemplates[cRead],
			params: []types.Value{types.NewInt(int64(src))},
			want: expect{custom: func(res *server.Result) bool {
				if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
					return false
				}
				w.reads = append(w.reads, churnReadRec{src: src, got: res.Rows[0][0].I, lo: lo, hi: w.issued.Load()})
				return true
			}},
			probe: layerProbe{kernel: kernelEnum, src: src, maxLen: 2, selBelow: 100}}
	}
}

func (w *graphChurn) drive(sys *system, win window) []*clientLog {
	logs := []*clientLog{{}, {}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		win.closedLoop(sys.conns[0], w.readStream(), logs[0])
	}()
	go func() {
		defer wg.Done()
		win.pacedLoop(churnInterval, func(int) (uint8, bool) {
			o := w.nextWrite()
			return o.kind, sys.conns[1].do(o)
		}, logs[1])
	}()
	wg.Wait()
	return logs
}

// apply replays one write on the reference graph.
func (cw churnWrite) apply(ref *refGraph) {
	switch cw.kind {
	case cInsert:
		ref.addEdge(cw.edge)
	case cDelete:
		ref.removeEdge(cw.id)
	case cUpdate:
		ref.edges[cw.id].sel = cw.sel
	}
}

// verify replays the writes on a fresh reference graph. Every recorded read
// must match the reference at a version in its [lo, hi] range; then the
// quiesced edge count and 50 sampled queries must match the final model.
func (w *graphChurn) verify(sys *system) (attempted, failed int) {
	ref := newRefGraph(w.g)
	matched := make([]bool, len(w.reads))
	first := 0 // reads before first have lo < version and are settled
	for version := 0; version <= len(w.writes); version++ {
		for first < len(w.reads) && int(w.reads[first].hi) < version {
			first++
		}
		for i := first; i < len(w.reads) && int(w.reads[i].lo) <= version; i++ {
			rd := w.reads[i]
			if !matched[i] && int(rd.hi) >= version && int64(ref.within(rd.src, 2, 100)) == rd.got {
				matched[i] = true
			}
		}
		if version < len(w.writes) {
			w.writes[version].apply(ref)
		}
	}
	// The reads were counted as attempted in the window; here they can only
	// add failures.
	for _, ok := range matched {
		if !ok {
			failed++
		}
	}

	c := sys.conns[0]
	attempted++
	if !c.do(&op{si: -1, text: `SELECT COUNT(*) FROM e`, want: wantRows(1, types.NewInt(int64(ref.live)))}) {
		failed++
	}
	r := newPRNG(w.seed, "churn/verify")
	for i := 0; i < 50; i++ {
		src := w.sources[r.intn(len(w.sources))]
		attempted++
		if !c.do(&op{si: cRead, params: []types.Value{types.NewInt(int64(src))},
			want: wantRows(1, types.NewInt(int64(ref.within(src, 2, 100))))}) {
			failed++
		}
	}
	return attempted, failed
}
