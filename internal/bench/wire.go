package bench

import (
	"fmt"
	"net"
	"sort"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/server"
	"grfusion/internal/types"
)

// This file measures the wire protocol: how fast a client can drive the
// server over TCP. Three point-query lanes (JSON-lines round trips,
// binary round trips, and binary pipelined batches over a prepared
// statement) quantify what framing and pipelining buy on the
// request-dominated path, and two ingest lanes (per-statement prepared
// INSERTs vs the COPY bulk stream) quantify the bulk path into a
// graph-view edge table. Absolute rates are machine-bound, so the gates
// (gate.go) read only the two speedup ratios.

// wireBench runs the protocol experiment against a real server on a
// loopback listener.
func wireBench(cfg Config) []Row {
	cfg = cfg.Defaults()
	const ds = "wiresynth"
	row := func(param, metric string, v float64, note string) Row {
		return Row{Experiment: "wire", Dataset: ds, System: "grfusion",
			Param: param, Metric: metric, Value: v, Note: note}
	}
	abort := func(param, msg string) []Row {
		return []Row{{Experiment: "wire", Dataset: ds, System: "grfusion",
			Param: param, Metric: "rows_per_sec", Note: "ABORT: " + firstLine(msg)}}
	}

	eng := core.New(core.Options{})
	srv := server.New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return abort("setup", err.Error())
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	addr := ln.Addr().String()

	dial := func(proto string) (*server.Client, error) {
		return server.DialWith(addr, server.Options{
			ConnectTimeout: 10 * time.Second,
			Protocol:       proto,
		})
	}
	admin, err := dial(server.ProtoAuto)
	if err != nil {
		return abort("setup", err.Error())
	}
	defer admin.Close()
	for _, q := range []string{
		`CREATE TABLE wv (vid BIGINT PRIMARY KEY, name VARCHAR)`,
		`CREATE INDEX wv_vid ON wv (vid)`,
		`CREATE TABLE we (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w BIGINT)`,
		`CREATE DIRECTED GRAPH VIEW wg VERTEXES(ID=vid) FROM wv EDGES(ID=eid, FROM=src, TO=dst) FROM we`,
	} {
		if _, err := admin.Exec(q); err != nil {
			return abort("setup", err.Error())
		}
	}

	// Vertices land via COPY so setup doesn't dominate the run.
	nv := scaled(10_000, cfg.Scale)
	ci, err := admin.CopyIn("wv", nil, nv)
	if err != nil {
		return abort("setup", err.Error())
	}
	batch := make([]types.Row, 0, 4096)
	for i := 0; i < nv; i++ {
		batch = append(batch, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("v%d", i))})
		if len(batch) == cap(batch) {
			if err := ci.Send(batch); err != nil {
				return abort("setup", err.Error())
			}
			batch = batch[:0]
		}
	}
	if err := ci.Send(batch); err != nil {
		return abort("setup", err.Error())
	}
	if res, err := ci.Close(); err != nil || res.Affected != nv {
		return abort("setup", fmt.Sprintf("vertex load: %v (affected %v)", err, res))
	}

	var rows []Row

	// --- point queries: the request-dominated path ----------------------
	nq := max(500, cfg.Queries*50)
	pointQuery := func(i int) string {
		return fmt.Sprintf("SELECT name FROM wv WHERE vid = %d", i%nv)
	}
	// Every point lane reports the median of wireReps timed passes over a
	// warmed connection — single samples on a loaded host swing far too
	// wide to gate on.
	runSequential := func(proto string) (float64, error) {
		c, err := dial(proto)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		for i := 0; i < 50; i++ { // warm the connection, plan cache, and scheduler
			if _, err := c.Exec(pointQuery(i)); err != nil {
				return 0, err
			}
		}
		samples := make([]float64, 0, wireReps)
		for rep := 0; rep < wireReps; rep++ {
			t0 := time.Now()
			for i := 0; i < nq; i++ {
				res, err := c.Exec(pointQuery(i))
				if err != nil {
					return 0, err
				}
				if len(res.Rows) != 1 {
					return 0, fmt.Errorf("point query returned %d rows", len(res.Rows))
				}
			}
			samples = append(samples, float64(nq)/time.Since(t0).Seconds())
		}
		return median(samples), nil
	}
	jsonQPS, err := runSequential(server.ProtoJSON)
	if err != nil {
		return abort("point json_roundtrip", err.Error())
	}
	binQPS, err := runSequential(server.ProtoBinary)
	if err != nil {
		return abort("point binary_roundtrip", err.Error())
	}

	// Pipelined: a prepared point lookup executed by id, many per flush.
	// This is the protocol's headline lane — parse/plan amortized away,
	// syscalls amortized across the batch, responses read back in order.
	pipeQPS := 0.0
	{
		c, err := dial(server.ProtoBinary)
		if err != nil {
			return abort("point binary_pipelined", err.Error())
		}
		defer c.Close()
		stmt, err := c.Prepare(`SELECT name FROM wv WHERE vid = ?`)
		if err != nil {
			return abort("point binary_pipelined", err.Error())
		}
		const depth = 64
		npipe := max(nq*4, 2000)
		npipe -= npipe % depth
		runPipe := func() (float64, error) {
			t0 := time.Now()
			p := c.Pipeline()
			for i := 0; i < npipe; i++ {
				p.ExecStmt(stmt, types.NewInt(int64(i%nv)))
				if p.Len() == depth {
					results, err := p.Flush()
					if err != nil {
						return 0, err
					}
					for _, r := range results {
						if r.Err != nil {
							return 0, r.Err
						}
					}
				}
			}
			return float64(npipe) / time.Since(t0).Seconds(), nil
		}
		if _, err := runPipe(); err != nil { // warmup pass
			return abort("point binary_pipelined", err.Error())
		}
		samples := make([]float64, 0, wireReps)
		for rep := 0; rep < wireReps; rep++ {
			s, err := runPipe()
			if err != nil {
				return abort("point binary_pipelined", err.Error())
			}
			samples = append(samples, s)
		}
		pipeQPS = median(samples)
	}

	rows = append(rows,
		row("point json_roundtrip", "queries_per_sec", jsonQPS, fmt.Sprintf("%d sequential point lookups, one JSON round trip each", nq)),
		row("point binary_roundtrip", "queries_per_sec", binQPS, fmt.Sprintf("%d sequential point lookups, one binary round trip each", nq)),
		row("point binary_pipelined", "queries_per_sec", pipeQPS, "prepared point lookups pipelined 64 deep"),
		row("point", "pipeline_speedup", pipeQPS/jsonQPS, "pipelined binary vs JSON round trips"),
	)

	// --- bulk ingest into the graph-view edge table ---------------------
	// Per-statement lane: prepared INSERT, one round trip per edge. Every
	// statement publishes a version, so this also pays the engine's
	// per-publish costs — exactly what a naive loader pays.
	perStmtRate := 0.0
	{
		c, err := dial(server.ProtoBinary)
		if err != nil {
			return abort("ingest per_statement", err.Error())
		}
		defer c.Close()
		ins, err := c.Prepare(`INSERT INTO we VALUES (?, ?, ?, 1)`)
		if err != nil {
			return abort("ingest per_statement", err.Error())
		}
		ns := max(200, cfg.Queries*20)
		samples := make([]float64, 0, wireReps)
		for rep := 0; rep < wireReps; rep++ {
			t0 := time.Now()
			for i := 0; i < ns; i++ {
				id := 1_000_000_000 + rep*ns + i
				if _, err := ins.Exec(
					types.NewInt(int64(id)),
					types.NewInt(int64(i%nv)),
					types.NewInt(int64((i+1)%nv)),
				); err != nil {
					return abort("ingest per_statement", err.Error())
				}
			}
			samples = append(samples, float64(ns)/time.Since(t0).Seconds())
		}
		perStmtRate = median(samples)
		rows = append(rows, row("ingest per_statement", "rows_per_sec", perStmtRate,
			fmt.Sprintf("%d prepared INSERTs, one round trip and one version publish each", ns)))
	}

	// COPY lane: the streaming bulk path — batched frames, batch-atomic
	// application, one MVCC publish for the whole load.
	{
		ne := scaled(500_000, cfg.Scale)
		c, err := dial(server.ProtoBinary)
		if err != nil {
			return abort("ingest copy", err.Error())
		}
		defer c.Close()
		t0 := time.Now()
		ci, err := c.CopyIn("we", nil, ne)
		if err != nil {
			return abort("ingest copy", err.Error())
		}
		const bs = 4096
		batch := make([]types.Row, bs)
		slab := make([]types.Value, 0, bs*4)
		sent := 0
		for sent < ne {
			n := bs
			if rem := ne - sent; n > rem {
				n = rem
			}
			slab = slab[:0]
			for i := 0; i < n; i++ {
				id := sent + i
				slab = append(slab,
					types.NewInt(int64(id)),
					types.NewInt(int64(id%nv)),
					types.NewInt(int64((id*7+1)%nv)),
					types.NewInt(int64(id%100)),
				)
				batch[i] = types.Row(slab[i*4 : (i+1)*4])
			}
			if err := ci.Send(batch[:n]); err != nil {
				return abort("ingest copy", err.Error())
			}
			sent += n
		}
		res, err := ci.Close()
		secs := time.Since(t0).Seconds()
		if err != nil || res.Affected != ne {
			return abort("ingest copy", fmt.Sprintf("%v (affected %v)", err, res))
		}
		copyRate := float64(ne) / secs
		rows = append(rows,
			row("ingest copy", "rows_per_sec", copyRate,
				fmt.Sprintf("%d edges streamed into the graph view in %d-row batches, one publish total", ne, bs)),
			row("ingest", "copy_speedup", copyRate/perStmtRate, "COPY stream vs per-statement inserts"),
		)
		// Sanity: the load must actually be visible relationally and in the
		// graph view.
		chk, err := admin.Exec(`SELECT COUNT(*) FROM we`)
		if err != nil || len(chk.Rows) != 1 {
			return abort("ingest copy", fmt.Sprintf("post-load count: %v", err))
		}
	}
	return rows
}

// wireReps is how many timed passes the point and per-statement lanes
// run; the reported rate is their median.
const wireReps = 5

// median returns the middle value of s (mean of the middle two when
// even). s is sorted in place.
func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
