package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/types"
	"grfusion/internal/wal"
)

// ingest.durable: single-row writes and periodic bulk loads against a
// durable engine (WAL, fsync on every commit, default checkpoint cadence)
// whose files go through the recording filesystem. After the window the
// engine is killed, unsynced bytes are discarded, and the directory is
// recovered; every acknowledged write must be readable.

const (
	kRead = iota
	kUpdate
	kInsert
	kDelete
	kLoad
)

var ingestKinds = []opKind{
	kRead:   {"kv_read", read},
	kUpdate: {"kv_update", write},
	kInsert: {"kv_insert", write},
	kDelete: {"kv_delete", write},
	kLoad:   {"events_load", batch},
}

var ingestTemplates = []string{
	kRead:   `SELECT v FROM kv WHERE k = ?`,
	kUpdate: `UPDATE kv SET v = ? WHERE k = ?`,
	kInsert: `INSERT INTO kv VALUES (?, ?)`,
	kDelete: `DELETE FROM kv WHERE k = ?`,
}

const (
	kvRows        = 100_000
	kvValueBytes  = 100
	kvRowBytes    = 8 + kvValueBytes
	eventBatch    = 4 * copyBatch // rows per paced load
	eventBody     = 64
	eventRowBytes = 16 + eventBody
	eventsPreload = 4 // batches present at set-up; each load adds one and purges the oldest
	loadInterval  = time.Second
)

type ingestDurable struct {
	seed   uint64
	outDir string

	// Model of kv, owned by client A: version[k] is the number of updates
	// applied to key k, alive[k] whether it exists; live lists existing keys
	// for uniform picks. touched records every key written in the run, in
	// order, for the after-crash check.
	r       *prng
	version []uint32
	alive   []bool
	live    []int64
	touched []int64

	// Model of events, owned by client B.
	nextBatch   int64
	oldestBatch int64

	userBytes int64 // bytes of user data written so far, by set-up and both clients

	recoveryS float64
	replayed  int
	ackedLost int
	dirSerial int
}

func newIngestDurable(seed uint64, outDir string) *ingestDurable {
	w := &ingestDurable{seed: seed, outDir: outDir, r: newPRNG(seed, "ingest/clientA"),
		version: make([]uint32, kvRows), alive: make([]bool, kvRows), live: make([]int64, kvRows),
		nextBatch: eventsPreload,
		// What set-up loads counts as user data too: the log and the device
		// are measured from the engine's first byte.
		userBytes: kvRows*kvRowBytes + eventsPreload*eventBatch*eventRowBytes,
	}
	for k := range w.live {
		w.alive[k] = true
		w.live[k] = int64(k)
	}
	return w
}

func (w *ingestDurable) name() string            { return "ingest.durable" }
func (w *ingestDurable) kinds() []opKind         { return ingestKinds }
func (w *ingestDurable) templates() []string     { return ingestTemplates }
func (w *ingestDurable) traceStream() func() *op { return w.nextA }

func (w *ingestDurable) options(dir string, fs *recFS) core.Options {
	return core.Options{Durability: core.Durability{Dir: dir, Fsync: wal.FsyncAlways, FS: fs}}
}

func eventRow(batch int64, i int) types.Row {
	id := batch*eventBatch + int64(i)
	return types.Row{types.NewInt(id), types.NewInt(batch), types.NewString(payload(id, 0, eventBody))}
}

func (w *ingestDurable) setup() (*system, error) {
	w.dirSerial++
	dir := filepath.Join(w.outDir, fmt.Sprintf("durable-%d-%d", os.Getpid(), w.dirSerial))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rfs := newRecFS()
	eng, _, err := core.Open(w.options(dir, rfs))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sys, err := serve(eng, 2) // conns[0] = client A, conns[1] = client B
	if err != nil {
		eng.Kill()
		os.RemoveAll(dir)
		return nil, err
	}
	sys.dir, sys.rfs = dir, rfs
	c := sys.conns[0]
	// kv_k: a PRIMARY KEY alone leaves point reads to a full scan (the
	// oltp.adhoc "pk" op measures that); here reads only exist to check
	// writes and must not outweigh them.
	err = c.script(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v VARCHAR)`,
		`CREATE INDEX kv_k ON kv (k)`,
		`CREATE TABLE events (id BIGINT PRIMARY KEY, batch BIGINT, body VARCHAR)`,
		`CREATE INDEX events_batch ON events (batch)`)
	if err == nil {
		err = c.copyRows("kv", kvRows, func(i int) types.Row {
			return types.Row{types.NewInt(int64(i)), types.NewString(payload(int64(i), 0, kvValueBytes))}
		})
	}
	if err == nil {
		err = c.copyRows("events", eventsPreload*eventBatch, func(i int) types.Row {
			return eventRow(int64(i/eventBatch), i%eventBatch)
		})
	}
	if err == nil {
		err = c.prepare(ingestTemplates...)
	}
	if err == nil {
		err = sys.conns[1].prepare(`DELETE FROM events WHERE batch = ?`)
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// nextA draws client A's next op: 20% point reads (checked against the
// model, so a lost or misapplied write shows during the run), and writes in
// the ISSUE's 70/15/15 update/insert/delete split.
func (w *ingestDurable) nextA() *op {
	r := w.r
	V := func(k int64) types.Value { return types.NewString(payload(k, w.version[k], kvValueBytes)) }
	liveKey := func() (int, int64) { i := r.intn(len(w.live)); return i, w.live[i] }
	switch p := r.intn(100); {
	case p < 20:
		_, k := liveKey()
		return &op{kind: kRead, si: kRead, text: ingestTemplates[kRead],
			params: []types.Value{types.NewInt(k)}, want: wantRows(1, V(k)),
			probe: layerProbe{rel: relIndex, table: "kv", key: k, col: 0}}
	case p < 76:
		_, k := liveKey()
		w.version[k]++
		w.wrote(k)
		return &op{kind: kUpdate, si: kUpdate, text: ingestTemplates[kUpdate],
			params: []types.Value{V(k), types.NewInt(k)}, want: wantAffected(1),
			probe: layerProbe{rel: relUpdate, table: "kv", key: k}}
	case p < 88:
		k := int64(len(w.alive))
		w.version = append(w.version, 0)
		w.alive = append(w.alive, true)
		w.live = append(w.live, k)
		w.wrote(k)
		return &op{kind: kInsert, si: kInsert, text: ingestTemplates[kInsert],
			params: []types.Value{types.NewInt(k), V(k)}, want: wantAffected(1),
			probe: layerProbe{rel: relInsert, table: "kv", key: k, row: types.Row{types.NewInt(k), V(k)}}}
	default:
		i, k := liveKey()
		w.live[i] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		w.alive[k] = false
		w.wrote(k)
		return &op{kind: kDelete, si: kDelete, text: ingestTemplates[kDelete],
			params: []types.Value{types.NewInt(k)}, want: wantAffected(1),
			probe: layerProbe{rel: relDelete, table: "kv", key: k}}
	}
}

func (w *ingestDurable) wrote(k int64) {
	w.touched = append(w.touched, k)
	atomic.AddInt64(&w.userBytes, kvRowBytes)
}

// loadBatch is client B's paced op: COPY one batch into events, then purge
// the oldest batch, so the table's size is stationary.
func (w *ingestDurable) loadBatch(c *conn) bool {
	b := w.nextBatch
	w.nextBatch++
	if err := c.copyRows("events", eventBatch, func(i int) types.Row { return eventRow(b, i) }); err != nil {
		return false
	}
	atomic.AddInt64(&w.userBytes, eventBatch*eventRowBytes)
	res, err := c.stmts[0].Exec(types.NewInt(w.oldestBatch))
	w.oldestBatch++
	return err == nil && res.Affected == eventBatch
}

func (w *ingestDurable) drive(sys *system, win window) []*clientLog {
	logs := []*clientLog{{}, {}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		win.closedLoop(sys.conns[0], w.nextA, logs[0])
	}()
	go func() {
		defer wg.Done()
		win.pacedLoop(loadInterval, func(int) (uint8, bool) { return kLoad, w.loadBatch(sys.conns[1]) }, logs[1])
	}()
	wg.Wait()
	return logs
}

// verify crashes the engine (kill, then drop every byte that was never
// synced), recovers the directory, and checks the recovered tables against
// the model: table sizes, and the state of every key written in the run. A
// key whose recovered state differs from its last acknowledged write counts
// in acked_lost.
func (w *ingestDurable) verify(sys *system) (attempted, failed int) {
	for _, c := range sys.conns {
		c.c.Close()
	}
	sys.conns = nil
	sys.srv.ShutdownTimeout(2 * time.Second)
	sys.eng.Kill()
	if err := sys.rfs.CrashDiscard(); err != nil {
		return 1, 1
	}

	t0 := time.Now()
	eng, info, err := core.Open(w.options(sys.dir, sys.rfs))
	if err != nil {
		fmt.Fprintln(os.Stderr, "recovery failed:", err)
		return 1, 1
	}
	sys.eng = eng // close() kills the recovered engine and removes the directory
	count := func(table string) int64 {
		res, err := eng.Execute(`SELECT COUNT(*) FROM ` + table)
		if err != nil || len(res.Rows) != 1 {
			return -1
		}
		return res.Rows[0][0].I
	}
	kvCount := count("kv") // the first successful query ends the recovery clock
	w.recoveryS = time.Since(t0).Seconds()
	w.replayed = info.Replayed

	attempted = 2
	if kvCount != int64(len(w.live)) {
		failed++
	}
	if count("events") != (w.nextBatch-w.oldestBatch)*eventBatch {
		failed++
	}
	get, err := eng.Prepare(ingestTemplates[kRead])
	if err != nil {
		return attempted + 1, failed + 1
	}
	checked := map[int64]bool{}
	for _, k := range w.touched {
		if checked[k] {
			continue
		}
		checked[k] = true
		attempted++
		res, err := get.Query(types.NewInt(k))
		ok := err == nil
		if ok && w.alive[k] {
			ok = len(res.Rows) == 1 && res.Rows[0][0].S == payload(k, w.version[k], kvValueBytes)
		} else if ok {
			ok = len(res.Rows) == 0
		}
		if !ok {
			w.ackedLost++
			failed++
		}
	}
	return attempted, failed
}

// extra reports what the crash-and-recover step measured.
func (w *ingestDurable) extra() map[string]float64 {
	return map[string]float64{
		"recovery_s":         w.recoveryS,
		"recovery_replayed":  float64(w.replayed),
		"acked_lost":         float64(w.ackedLost),
		"user_bytes_written": float64(w.userBytes),
	}
}
