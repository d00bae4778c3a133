package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"grfusion/internal/catalog"
	"grfusion/internal/sql"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// Snapshots serialize a whole database (schema, data, indexes, graph-view
// definitions) with encoding/gob, giving GRFusion the same
// snapshot-and-rebuild durability story as an in-memory store like VoltDB.
// Graph-view topologies are not serialized: they are derived state and are
// rebuilt from the relational sources on restore (§3.2).

type snapCol struct {
	Name string
	Type uint8
}

type snapValue struct {
	Kind uint8
	B    bool
	I    int64
	F    float64
	S    string
}

type snapTable struct {
	Name    string
	Cols    []snapCol
	PK      []int
	Rows    [][]snapValue
	Indexes []storage.IndexInfo
	// IDs[i] is the slot (RowID) of Rows[i], and Free is the LIFO free
	// list, so restore reproduces the exact slot image: RowIDs are the
	// tuple pointers graph views hold, and WAL replay pins the allocator
	// state, so a checkpoint must not compact or reorder slots (v2).
	IDs  []uint64
	Free []uint64
}

type snapAttr struct {
	Name   string
	Source string
}

type snapView struct {
	Name         string
	Directed     bool
	VertexSource string
	EdgeSource   string
	VertexAttrs  []snapAttr
	EdgeAttrs    []snapAttr
}

type snapDB struct {
	Version int
	Tables  []snapTable
	// MatViews holds the defining statements of materialized views; they
	// are re-executed on restore (after tables, before graph views) and
	// rebuild their contents from the restored bases.
	MatViews []string
	Views    []snapView
	// LSN is the WAL position this snapshot covers: recovery skips log
	// records at or below it. Zero for plain (non-checkpoint) snapshots.
	// gob ignores unknown fields, so snapshots written before this field
	// existed decode with LSN 0.
	LSN uint64
}

// snapshotVersion 2 added slot-exact table images (snapTable.IDs/Free).
// Version-1 snapshots (dense rows, no slot info) still restore, with
// freshly compacted slots — fine for \save/\load archives, but checkpoints
// are always written as v2 so recovery preserves tuple pointers.
const snapshotVersion = 2

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

// encodeSnapshotLocked serializes the database under the writer lock.
// lsn is embedded so checkpoint recovery knows which WAL records the
// image already contains.
func (e *Engine) encodeSnapshotLocked(w io.Writer, lsn uint64) error {
	db := snapDB{Version: snapshotVersion, LSN: lsn}
	for _, name := range e.cat.Tables() {
		if e.cat.IsMatViewTable(name) {
			continue // derived state: rebuilt by re-running the definition
		}
		t, _ := e.cat.Table(name)
		st := snapTable{Name: t.Name(), PK: t.PrimaryKeyColumns(), Indexes: t.Indexes()}
		for _, c := range t.Schema().Columns {
			st.Cols = append(st.Cols, snapCol{Name: c.Name, Type: uint8(c.Type)})
		}
		t.Scan(func(id storage.RowID, row types.Row) bool {
			sr := make([]snapValue, len(row))
			for i, v := range row {
				sr[i] = snapValue{Kind: uint8(v.Kind), B: v.B, I: v.I, F: v.F, S: v.S}
			}
			st.Rows = append(st.Rows, sr)
			st.IDs = append(st.IDs, uint64(id))
			return true
		})
		for _, id := range t.FreeList() {
			st.Free = append(st.Free, uint64(id))
		}
		db.Tables = append(db.Tables, st)
	}
	for _, name := range e.cat.MatViews() {
		mv, _ := e.cat.MatView(name)
		db.MatViews = append(db.MatViews, mv.CreateSQL)
	}
	for _, name := range e.cat.GraphViews() {
		gv, _ := e.cat.GraphView(name)
		sv := snapView{Name: gv.Name, Directed: gv.Directed,
			VertexSource: gv.VertexSource, EdgeSource: gv.EdgeSource}
		for _, a := range gv.VertexAttrs {
			sv.VertexAttrs = append(sv.VertexAttrs, snapAttr{Name: a.Name, Source: a.Source})
		}
		for _, a := range gv.EdgeAttrs {
			sv.EdgeAttrs = append(sv.EdgeAttrs, snapAttr{Name: a.Name, Source: a.Source})
		}
		db.Views = append(db.Views, sv)
	}
	return gob.NewEncoder(w).Encode(&db)
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
// position it covers (recovery replays only records past it).
func (e *Engine) restoreLocked(r io.Reader) (uint64, error) {
	if len(e.cat.Tables()) > 0 || len(e.cat.GraphViews()) > 0 {
		return 0, fmt.Errorf("restore requires an empty engine")
	}
	var db snapDB
	if err := gob.NewDecoder(r).Decode(&db); err != nil {
		return 0, fmt.Errorf("decode snapshot: %v", err)
	}
	if db.Version < 1 || db.Version > snapshotVersion {
		return 0, fmt.Errorf("unsupported snapshot version %d", db.Version)
	}
	for _, st := range db.Tables {
		cols := make([]types.Column, len(st.Cols))
		for i, c := range st.Cols {
			cols[i] = types.Column{Qualifier: st.Name, Name: c.Name, Type: types.Kind(c.Type)}
		}
		t, err := storage.NewTable(st.Name, types.NewSchema(cols...), st.PK)
		if err != nil {
			return 0, err
		}
		if err := restoreRows(t, &st, db.Version); err != nil {
			return 0, err
		}
		for _, ix := range st.Indexes {
			if _, err := t.CreateIndex(ix.Name, ix.Cols, ix.Ordered); err != nil {
				return 0, fmt.Errorf("restore index %s: %v", ix.Name, err)
			}
		}
		if err := e.cat.CreateTable(t); err != nil {
			return 0, err
		}
	}
	// Materialized views may depend on each other; retry until a full pass
	// makes no progress (then the snapshot is inconsistent).
	var pending []*sql.CreateMatView
	for _, def := range db.MatViews {
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
	for _, sv := range db.Views {
		vtab, ok := e.cat.Table(sv.VertexSource)
		if !ok {
			return 0, fmt.Errorf("restore view %s: missing source %s", sv.Name, sv.VertexSource)
		}
		etab, ok := e.cat.Table(sv.EdgeSource)
		if !ok {
			return 0, fmt.Errorf("restore view %s: missing source %s", sv.Name, sv.EdgeSource)
		}
		toAttrs := func(as []snapAttr) []catalog.AttrMap {
			out := make([]catalog.AttrMap, len(as))
			for i, a := range as {
				out[i] = catalog.AttrMap{Name: a.Name, Source: a.Source}
			}
			return out
		}
		gv, err := catalog.NewGraphView(sv.Name, sv.Directed, vtab, etab,
			toAttrs(sv.VertexAttrs), toAttrs(sv.EdgeAttrs))
		if err != nil {
			return 0, fmt.Errorf("restore view %s: %v", sv.Name, err)
		}
		if err := e.cat.RegisterGraphView(gv); err != nil {
			return 0, err
		}
	}
	return db.LSN, nil
}

// restoreRows loads one table's rows. Version-2 snapshots carry the exact
// slot image (per-row RowIDs plus the free list) and must reproduce it;
// version-1 snapshots predate slot info and are restored densely.
func restoreRows(t *storage.Table, st *snapTable, version int) error {
	decode := func(sr []snapValue) types.Row {
		row := make(types.Row, len(sr))
		for i, v := range sr {
			row[i] = types.Value{Kind: types.Kind(v.Kind), B: v.B, I: v.I, F: v.F, S: v.S}
		}
		return row
	}
	if version < 2 {
		for _, sr := range st.Rows {
			if _, err := t.Insert(decode(sr)); err != nil {
				return fmt.Errorf("restore table %s: %v", st.Name, err)
			}
		}
		return nil
	}
	if len(st.IDs) != len(st.Rows) {
		return fmt.Errorf("restore table %s: %d slot ids for %d rows", st.Name, len(st.IDs), len(st.Rows))
	}
	size := len(st.Rows) + len(st.Free)
	image := make([]types.Row, size)
	for i, sr := range st.Rows {
		id := st.IDs[i]
		if id < 1 || id > uint64(size) || image[id-1] != nil {
			return fmt.Errorf("restore table %s: bad slot %d for row %d", st.Name, id, i)
		}
		image[id-1] = decode(sr)
	}
	free := make([]storage.RowID, len(st.Free))
	for i, id := range st.Free {
		free[i] = storage.RowID(id)
	}
	if err := t.RestoreSlots(image, free); err != nil {
		return fmt.Errorf("restore table %s: %v", st.Name, err)
	}
	return nil
}
