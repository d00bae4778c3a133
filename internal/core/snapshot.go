package core

import (
	"errors"
	"fmt"
	"io"

	"grfusion/internal/catalog"
	"grfusion/internal/sql"
	"grfusion/internal/storage"
	"grfusion/internal/types"
	"grfusion/internal/wal"
)

// Snapshots write a whole database (schema, data, indexes, materialized-
// and graph-view definitions) as a checkpoint: the WAL's CRC'd frames and
// value codec (wal.CheckpointWriter), the same one format for \save/\load
// archives and for the durable checkpoint, giving GRFusion VoltDB's
// snapshot-plus-command-log durability. Graph-view topologies are not
// serialized: they are derived state and are rebuilt from the relational
// sources on restore (§3.2).
//
// The header frame's catalog, in order:
//
//	tables:      count, then per table its name; its columns as count and
//	             (name, kind) each; its primary key as count and positions;
//	             its indexes as count and (name, positions, ordered) each
//	matviews:    count, then each defining statement
//	graph views: count, then per view its name, directed, vertex source,
//	             edge source, and vertex then edge attributes as count and
//	             (name, source) each

// Snapshot writes a consistent image of the database to w. It holds the
// writer lock, so writers wait while the image is written; readers pin
// versions and keep running.
func (e *Engine) Snapshot(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var lsn uint64
	if e.dur.log != nil {
		lsn = e.dur.log.LastLSN()
	}
	return e.encodeSnapshotLocked(w, lsn)
}

// encodeSnapshotLocked streams the database under the writer lock: the
// catalog, then each table's slot image straight from storage (RowIDs are
// the tuple pointers graph views hold, and WAL replay pins the allocator
// state, so a checkpoint never compacts or reorders slots). lsn is
// embedded so checkpoint recovery knows which WAL records the image
// already contains.
func (e *Engine) encodeSnapshotLocked(w io.Writer, lsn uint64) error {
	var tables []*storage.Table
	for _, name := range e.cat.Tables() {
		if !e.cat.IsMatViewTable(name) { // derived: rebuilt from its definition
			t, _ := e.cat.Table(name)
			tables = append(tables, t)
		}
	}
	cw := wal.NewCheckpointWriter(w, lsn, func(h *wal.Fields) {
		h.Uint(uint64(len(tables)))
		for _, t := range tables {
			h.Str(t.Name())
			cols := t.Schema().Columns
			h.Uint(uint64(len(cols)))
			for _, c := range cols {
				h.Str(c.Name)
				h.Uint(uint64(c.Type))
			}
			putInts(h, t.PrimaryKeyColumns())
			ixs := t.Indexes()
			h.Uint(uint64(len(ixs)))
			for _, ix := range ixs {
				h.Str(ix.Name)
				putInts(h, ix.Cols)
				h.Bool(ix.Ordered)
			}
		}
		mvs := e.cat.MatViews()
		h.Uint(uint64(len(mvs)))
		for _, name := range mvs {
			mv, _ := e.cat.MatView(name)
			h.Str(mv.CreateSQL)
		}
		gvs := e.cat.GraphViews()
		h.Uint(uint64(len(gvs)))
		for _, name := range gvs {
			gv, _ := e.cat.GraphView(name)
			h.Str(gv.Name)
			h.Bool(gv.Directed)
			h.Str(gv.VertexSource)
			h.Str(gv.EdgeSource)
			putAttrs(h, gv.VertexAttrs)
			putAttrs(h, gv.EdgeAttrs)
		}
	})
	var free []uint64
	for _, t := range tables {
		var err error
		t.Scan(func(id storage.RowID, row types.Row) bool {
			err = cw.Row(uint64(id), row)
			return err == nil
		})
		if err != nil {
			return err
		}
		free = free[:0]
		for _, id := range t.FreeList() {
			free = append(free, uint64(id))
		}
		if err := cw.EndTable(free); err != nil {
			return err
		}
	}
	return cw.Close()
}

func putInts(h *wal.Fields, xs []int) {
	h.Uint(uint64(len(xs)))
	for _, x := range xs {
		h.Uint(uint64(x))
	}
}

func getInts(h *wal.FieldReader) []int {
	xs := make([]int, h.Count())
	for i := range xs {
		xs[i] = int(h.Uint())
	}
	return xs
}

func putAttrs(h *wal.Fields, as []catalog.AttrMap) {
	h.Uint(uint64(len(as)))
	for _, a := range as {
		h.Str(a.Name)
		h.Str(a.Source)
	}
}

func getAttrs(h *wal.FieldReader) []catalog.AttrMap {
	as := make([]catalog.AttrMap, h.Count())
	for i := range as {
		as[i] = catalog.AttrMap{Name: h.Str(), Source: h.Str()}
	}
	return as
}

// Restore loads a snapshot into an empty engine, rebuilding indexes and
// graph-view topologies.
func (e *Engine) Restore(r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.restoreLocked(r)
	if err == nil {
		e.publishLocked()
	}
	return err
}

// restoreLocked loads a snapshot under the write lock, returning the WAL
// position it covers (recovery replays only records past it). Every
// failure to load it is wal.ErrCorruptWAL: frames that do not read back,
// or intact frames describing a database that cannot be rebuilt.
func (e *Engine) restoreLocked(r io.Reader) (uint64, error) {
	if len(e.cat.Tables()) > 0 || len(e.cat.GraphViews()) > 0 {
		return 0, fmt.Errorf("restore requires an empty engine")
	}
	lsn, err := e.readSnapshotLocked(r)
	if err != nil && !errors.Is(err, wal.ErrCorruptWAL) {
		err = fmt.Errorf("%w: %v", wal.ErrCorruptWAL, err)
	}
	return lsn, err
}

// readSnapshotLocked rebuilds the catalog as the header frame lists it:
// each table with its indexes, filled from its section of the stream;
// then the materialized views and the graph views over the loaded rows.
func (e *Engine) readSnapshotLocked(r io.Reader) (uint64, error) {
	cr, err := wal.OpenCheckpoint(r)
	if err != nil {
		return 0, err
	}
	h := cr.Header()
	tables := make([]*storage.Table, h.Count())
	for i := range tables {
		name := h.Str()
		cols := make([]types.Column, h.Count())
		for j := range cols {
			cols[j] = types.Column{Qualifier: name, Name: h.Str(), Type: types.Kind(h.Uint())}
		}
		t, err := storage.NewTable(name, types.NewSchema(cols...), getInts(h))
		if err != nil {
			return 0, err
		}
		for n := h.Count(); n > 0; n-- {
			ix, ixCols, ordered := h.Str(), getInts(h), h.Bool()
			if _, err := t.CreateIndex(ix, ixCols, ordered); err != nil {
				return 0, fmt.Errorf("restore index %s: %v", ix, err)
			}
		}
		tables[i] = t
	}
	for _, t := range tables {
		image, ids, err := cr.Table(t.Schema().Len())
		if err != nil {
			return 0, err
		}
		free := make([]storage.RowID, len(ids))
		for i, id := range ids {
			free[i] = storage.RowID(id)
		}
		if err := t.RestoreSlots(image, free); err != nil {
			return 0, fmt.Errorf("restore table %s: %v", t.Name(), err)
		}
		if err := e.cat.CreateTable(t); err != nil {
			return 0, err
		}
	}
	// Materialized views may depend on each other; retry until a full pass
	// makes no progress (then the snapshot is inconsistent).
	var pending []*sql.CreateMatView
	for n := h.Count(); n > 0; n-- {
		def := h.Str()
		stmt, err := sql.Parse(def)
		if err != nil {
			return 0, fmt.Errorf("restore materialized view: %v", err)
		}
		cm, ok := stmt.(*sql.CreateMatView)
		if !ok {
			return 0, fmt.Errorf("restore materialized view: %q does not create one", def)
		}
		pending = append(pending, cm)
	}
	for len(pending) > 0 {
		var next []*sql.CreateMatView
		var firstErr error
		for _, cm := range pending {
			if _, err := e.createMatView(cm); err != nil {
				next = append(next, cm)
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if len(next) == len(pending) {
			return 0, fmt.Errorf("restore materialized view: %v", firstErr)
		}
		pending = next
	}
	for n := h.Count(); n > 0; n-- {
		name, directed, vsrc, esrc := h.Str(), h.Bool(), h.Str(), h.Str()
		vattrs, eattrs := getAttrs(h), getAttrs(h)
		vtab, ok := e.cat.Table(vsrc)
		if !ok {
			return 0, fmt.Errorf("restore view %s: missing source %s", name, vsrc)
		}
		etab, ok := e.cat.Table(esrc)
		if !ok {
			return 0, fmt.Errorf("restore view %s: missing source %s", name, esrc)
		}
		gv, err := catalog.NewGraphView(name, directed, vtab, etab, vattrs, eattrs)
		if err != nil {
			return 0, fmt.Errorf("restore view %s: %v", name, err)
		}
		if err := e.cat.RegisterGraphView(gv); err != nil {
			return 0, err
		}
	}
	return cr.LSN(), cr.Close()
}
