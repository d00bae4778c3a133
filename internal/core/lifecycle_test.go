package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"grfusion/internal/exec"
	"grfusion/internal/types"
)

// cyclicEngine builds an engine holding a complete digraph on n vertices:
// ALLPATHS enumeration over it is factorial, the canonical runaway query
// the lifecycle machinery must be able to stop.
func cyclicEngine(t *testing.T, n int, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	mustExec(t, e, `CREATE TABLE V (vid BIGINT PRIMARY KEY)`)
	mustExec(t, e, `CREATE TABLE E (eid BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`)
	for i := 1; i <= n; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO V VALUES (%d)`, i))
	}
	eid := 0
	for a := 1; a <= n; a++ {
		for b := 1; b <= n; b++ {
			if a == b {
				continue
			}
			eid++
			mustExec(t, e, fmt.Sprintf(`INSERT INTO E VALUES (%d, %d, %d)`, eid, a, b))
		}
	}
	mustExec(t, e, `CREATE DIRECTED GRAPH VIEW K
		VERTEXES(ID = vid) FROM V
		EDGES(ID = eid, FROM = a, TO = b) FROM E`)
	return e
}

// runawayQuery enumerates all simple paths of the cyclic graph.
const runawayQuery = `SELECT COUNT(*) FROM K.Paths PS HINT(DFS, ALLPATHS) WHERE PS.StartVertex.Id = 1`

func TestDeadlineAbortsCyclicPathsQuery(t *testing.T) {
	e := cyclicEngine(t, 10, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.ExecuteContext(ctx, runawayQuery)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("query ran %v past a 50ms deadline", elapsed)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The engine is fully usable afterwards.
	r := mustExec(t, e, `SELECT COUNT(*) FROM V`)
	if r.Rows[0][0].I != 10 {
		t.Fatalf("engine unhealthy after timeout: %v", r.Rows[0])
	}
}

func TestSetQueryTimeoutStatement(t *testing.T) {
	e := cyclicEngine(t, 10, Options{})
	mustExec(t, e, `SET QUERY_TIMEOUT = 50`)
	if got := e.QueryTimeout(); got != 50*time.Millisecond {
		t.Fatalf("QueryTimeout = %v", got)
	}
	_, err := e.Execute(runawayQuery)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Disable and verify a cheap statement is unaffected.
	mustExec(t, e, `SET QUERY_TIMEOUT = 0`)
	mustExec(t, e, `SELECT COUNT(*) FROM E`)

	if _, err := e.Execute(`SET QUERY_TIMEOUT = -5`); err == nil {
		t.Fatal("negative timeout accepted")
	}
	if _, err := e.Execute(`SET NO_SUCH_KNOB = 1`); err == nil || !strings.Contains(err.Error(), "QUERY_TIMEOUT") {
		t.Fatalf("unknown setting error should list supported names: %v", err)
	}
}

func TestEngineOptionTimeoutAppliesWithoutCallerContext(t *testing.T) {
	e := cyclicEngine(t, 10, Options{QueryTimeout: 50 * time.Millisecond})
	_, err := e.Execute(runawayQuery)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestExplicitCancellationIsTyped(t *testing.T) {
	e := cyclicEngine(t, 10, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err := e.ExecuteContext(ctx, runawayQuery)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestCancelledContextSkipsWriteStatements(t *testing.T) {
	e := cyclicEngine(t, 4, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecuteContext(ctx, `INSERT INTO V VALUES (99)`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The insert must not have happened.
	r := mustExec(t, e, `SELECT COUNT(*) FROM V`)
	if r.Rows[0][0].I != 4 {
		t.Fatalf("cancelled write mutated state: %v", r.Rows[0])
	}
	// Scripts stop between statements.
	if _, err := e.ExecuteScriptContext(ctx, `SELECT COUNT(*) FROM V; SELECT COUNT(*) FROM E`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("script err = %v, want ErrCanceled", err)
	}
}

// TestPreparedWriteHonorsDeadline queues a prepared insert behind an open
// bulk load for longer than QUERY_TIMEOUT: like the ad hoc insert beside
// it, it must abort with ErrTimeout once it gets the lock, untouched.
func TestPreparedWriteHonorsDeadline(t *testing.T) {
	e := cyclicEngine(t, 4, Options{QueryTimeout: 20 * time.Millisecond})
	ins, err := e.PrepareDML(`INSERT INTO V VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := e.BeginBulk("V", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { _, err := ins.Exec(types.NewInt(98)); errs <- err }()
	go func() { _, err := e.Execute(`INSERT INTO V VALUES (99)`); errs <- err }()
	time.Sleep(100 * time.Millisecond)
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrTimeout) {
			t.Errorf("queued insert: err = %v, want ErrTimeout", err)
		}
	}
	e.SetQueryTimeout(0)
	if r := mustExec(t, e, `SELECT COUNT(*) FROM V`); r.Rows[0][0].I != 4 {
		t.Fatalf("expired write mutated state: %v", r.Rows[0])
	}
	// An explicit caller deadline works the same way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ins.ExecContext(ctx, types.NewInt(98)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("ExecContext on a canceled context: err = %v, want ErrCanceled", err)
	}
}

func TestPanicIsolationTypedError(t *testing.T) {
	e := New(Options{})
	mustExec(t, e, `CREATE TABLE Boom (a BIGINT)`)
	exec.DebugPanicTable = "Boom"
	defer func() { exec.DebugPanicTable = "" }()
	_, err := e.Execute(`SELECT * FROM Boom`)
	if !errors.Is(err, ErrQueryPanic) {
		t.Fatalf("err = %v, want ErrQueryPanic", err)
	}
	// The statement lock was released and the engine keeps working.
	exec.DebugPanicTable = ""
	mustExec(t, e, `INSERT INTO Boom VALUES (1)`)
	r := mustExec(t, e, `SELECT COUNT(*) FROM Boom`)
	if r.Rows[0][0].I != 1 {
		t.Fatalf("engine unhealthy after panic: %v", r.Rows[0])
	}
}

func TestPreparedQueryContextHonorsDeadline(t *testing.T) {
	e := cyclicEngine(t, 10, Options{})
	p, err := e.Prepare(`SELECT COUNT(*) FROM K.Paths PS HINT(DFS, ALLPATHS) WHERE PS.StartVertex.Id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.QueryContext(ctx, types.NewInt(1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Cheap parameterization still works on the same Prepared afterwards.
	mustExecPrepared(t, p)
}

func mustExecPrepared(t *testing.T, p *Prepared) {
	t.Helper()
	// Start from a vertex that does not exist: zero paths, instant.
	r, err := p.Query(types.NewInt(10_000))
	if err != nil {
		t.Fatalf("prepared query after timeout: %v", err)
	}
	if r.Rows[0][0].I != 0 {
		t.Fatalf("unexpected paths: %v", r.Rows[0])
	}
}
