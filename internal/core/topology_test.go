package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"grfusion/internal/catalog"
	"grfusion/internal/sql"
)

func mustView(t *testing.T, e *Engine, name string) *catalog.GraphView {
	t.Helper()
	gv, ok := e.cat.GraphView(name)
	if !ok {
		t.Fatalf("no graph view %s", name)
	}
	return gv
}

// TestPinnedTopologyUnderChurn pins a version of a graph view, then lets a
// writer insert and delete edges, delete a vertex (cascading its edges),
// rename a vertex id, rewire an edge and force a merge — while readers
// keep querying the pinned version through every kernel and facet: DFScan,
// BFScan, SPScan, a parallel multi-source count, VERTEXES with FanOut /
// FanIn, EDGES and DEGREE_CENTRALITY. Every pinned answer must stay
// exactly what it was at the pin (run it under -race). Afterwards a fresh
// read of the maintained topology must equal a rebuild from the sources.
func TestPinnedTopologyUnderChurn(t *testing.T) {
	e := ladderEngine(t, 40, 2)
	queries := []string{
		`SELECT PS.PathString FROM Ladder.Paths PS HINT(DFS) WHERE PS.StartVertex.Id = 3 AND PS.Length <= 4`,
		`SELECT PS.PathString FROM Ladder.Paths PS HINT(BFS) WHERE PS.StartVertex.Id = 4 AND PS.Length <= 3`,
		`SELECT TOP 3 PS.PathString FROM Ladder.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 2 AND PS.EndVertex.Id = 30`,
		`SELECT COUNT(*) FROM Ladder.Paths PS HINT(BFS) WHERE PS.Length <= 2`,
		`SELECT VS.Id, VS.name, VS.FanOut, VS.FanIn FROM Ladder.Vertexes VS`,
		`SELECT * FROM Ladder.Edges ES`,
		`SELECT * FROM Ladder.DEGREE_CENTRALITY() DC`,
	}
	at := func(st *dbState, q string) (string, error) {
		stmt, err := sql.Parse(q)
		if err != nil {
			return "", err
		}
		res, _, err := e.runSelect(context.Background(), stmt.(*sql.Select), st, nil, nil)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, row := range render(res) {
			sb.WriteString(strings.Join(row, "|"))
			sb.WriteByte('\n')
		}
		return sb.String(), nil
	}

	// The pinned version carries a delta of its own, so its reads walk main
	// and delta arcs, tombstones included.
	mustScript(t, e, `
		INSERT INTO E VALUES (400, 3, 12, 0.5), (401, 12, 3, 0.5);
		DELETE FROM E WHERE eid = 5;
		UPDATE E SET dst = 6 WHERE eid = 8;`)
	st := e.pin()
	defer e.unpin(st)
	if st.GraphView(mustView(t, e, "Ladder")).Topo.DeltaLen() == 0 {
		t.Fatal("the pinned version has no delta")
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = at(st, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	check := func() error {
		for i, q := range queries {
			got, err := at(st, q)
			if err != nil {
				return fmt.Errorf("%s: %v", q, err)
			}
			if got != want[i] {
				return fmt.Errorf("pinned reader's answer moved for %s:\n%s\nwant\n%s", q, got, want[i])
			}
		}
		return nil
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	mustScript(t, e, `
		INSERT INTO E VALUES (500, 3, 30, 0.5), (501, 4, 9, 0.25), (502, 2, 2, 1.0);
		DELETE FROM E WHERE eid = 6;
		DELETE FROM V WHERE vid = 7;
		UPDATE V SET vid = 1005 WHERE vid = 5;
		UPDATE E SET dst = 25 WHERE eid = 4;`)
	if err := e.MergeGraphView("Ladder"); err != nil {
		t.Fatal(err)
	}
	mustScript(t, e, `
		INSERT INTO E VALUES (503, 1005, 3, 0.75);
		DELETE FROM E WHERE eid = 500;
		UPDATE E SET eid = 600 WHERE eid = 501;`)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}

	// A fresh reader sees the writer's changes, and the maintained
	// topology equals a rebuild from the relational sources.
	fresh := e.pin()
	defer e.unpin(fresh)
	for i, q := range queries[4:] {
		if got, err := at(fresh, q); err != nil || got == want[4+i] {
			t.Errorf("fresh read of %s did not move (%v)", q, err)
		}
	}
	live, err := e.GraphTopology("Ladder")
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := e.RebuildGraphView("Ladder")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := topoSig(live), topoSig(rebuilt); a != b {
		t.Fatalf("maintained topology diverged from a rebuild:\n%s\nwant\n%s", a, b)
	}
	if live.Vertex(5) != nil || live.Vertex(1005) == nil || live.Vertex(7) != nil ||
		live.Edge(600) == nil || live.Edge(501) != nil || live.Edge(4).To.ID != 25 {
		t.Fatal("maintained topology misses a write")
	}
}

// TestPublishBoundsDelta: one statement that changes more than twice the
// merge threshold — a multi-row edge INSERT, then a vertex DELETE that
// cascades to their edges — still publishes a version whose delta is
// within max(64, (V+E)/8) events: publish folds the rest into a new main
// before binding.
func TestPublishBoundsDelta(t *testing.T) {
	e := ladderEngine(t, 40, 0)
	gv := mustView(t, e, "Ladder")
	var sb strings.Builder
	sb.WriteString("INSERT INTO E VALUES ")
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, 1.0)", 10_000+i, i%40, (i*7+3)%40)
	}
	for _, stmt := range []string{sb.String(), `DELETE FROM V WHERE vid < 20`} {
		builds, _, _, _, _ := gv.CSRStats()
		mustScript(t, e, stmt)
		st := e.pin()
		c := st.GraphView(gv).Topo
		e.unpin(st)
		if limit := max(64, (c.NumVertices()+c.NumEdges())/8); c.DeltaLen() > limit {
			t.Fatalf("%.30s…: published delta holds %d events, limit %d", stmt, c.DeltaLen(), limit)
		}
		if b, _, _, _, _ := gv.CSRStats(); b <= builds {
			t.Fatalf("%.30s…: csr_builds stayed at %d; publish did not merge", stmt, b)
		}
	}
	live, err := e.GraphTopology("Ladder")
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := e.RebuildGraphView("Ladder")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := topoSig(live), topoSig(rebuilt); a != b {
		t.Fatalf("maintained topology diverged from a rebuild:\n%s\nwant\n%s", a, b)
	}
}
