package core

import (
	"fmt"
	"sort"

	"grfusion/internal/catalog"
	"grfusion/internal/expr"
	"grfusion/internal/plan"
	"grfusion/internal/sql"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// DML runs inside an implicit transaction: every storage mutation and its
// graph-view maintenance (§3.3) either all apply or are all undone. The
// undo journal exploits the row store's LIFO free list: replaying inverses
// in reverse order restores every tuple to its original slot, keeping
// tuple pointers held by graph views valid.

type undoKind uint8

const (
	undoInsert undoKind = iota
	undoDelete
	undoUpdate
	// undoMapSet/undoMapDel reverse materialized-view row-map mutations.
	undoMapSet
	undoMapDel
)

type undoOp struct {
	kind   undoKind
	table  *storage.Table
	id     storage.RowID
	oldRow types.Row
	newRow types.Row
	// extended marks an undoInsert whose insert grew the row array; its
	// reversal must shrink it back (storage.Table.UndoInsert).
	extended bool

	// Materialized-view map entries (undoMapSet/undoMapDel).
	mv     *catalog.MatView
	viewID storage.RowID
}

type txn struct {
	e       *Engine
	journal []undoOp
}

func (tx *txn) views(table *storage.Table) []*catalog.GraphView {
	return tx.e.cat.DependentViews(table.Name())
}

// insertRow inserts and maintains dependent graph views atomically.
func (tx *txn) insertRow(t *storage.Table, row types.Row) (storage.RowID, error) {
	// extended records whether this insert will grow the row array rather
	// than reuse a hole; undoing the two cases differs (UndoInsert), and an
	// aborted statement must leave the allocator exactly as it found it —
	// WAL replay pins the allocator state and only sees applied statements.
	_, freeDepth := t.AllocState()
	extended := freeDepth == 0
	id, err := t.Insert(row)
	if err != nil {
		return storage.InvalidRowID, err
	}
	stored, _ := t.Get(id) // post-coercion image
	views := tx.views(t)
	for i, gv := range views {
		if err := gv.OnInsert(t.Name(), id, stored); err != nil {
			for j := i - 1; j >= 0; j-- {
				_ = views[j].OnDelete(t.Name(), stored)
			}
			_ = t.UndoInsert(id, extended)
			return storage.InvalidRowID, err
		}
	}
	tx.journal = append(tx.journal, undoOp{kind: undoInsert, table: t, id: id, newRow: stored, extended: extended})
	if err := tx.maintainMatViewsInsert(t, id, stored); err != nil {
		return storage.InvalidRowID, err
	}
	return id, nil
}

// deleteRow deletes a tuple, cascading onto edges relational-sources when
// the tuple is a vertex of some graph view (§3.3.2). Deleting an
// already-dead slot is a no-op so cascades may overlap.
func (tx *txn) deleteRow(t *storage.Table, id storage.RowID) error {
	row, ok := t.Get(id)
	if !ok {
		return nil
	}
	// Cascade: remove incident edge tuples first so the relational state
	// never references a vanished vertex.
	for _, gv := range tx.views(t) {
		if !gv.IsVertexSource(t.Name()) {
			continue
		}
		vidPos := gv.VertexIDSourceColumn()
		if row[vidPos].Kind != types.KindInt {
			continue
		}
		// Cascade in tuple-pointer order, not adjacency-list order: adjacency
		// order depends on construction history (incremental maintenance vs a
		// post-recovery rebuild), while deletion order decides the free-list
		// push order and hence which slots later inserts reuse. WAL replay is
		// only deterministic if a statement's relational effects are a pure
		// function of relational state, so the cascade order must be too.
		refs := gv.IncidentEdges(row[vidPos].I)
		sort.Slice(refs, func(i, j int) bool { return refs[i].Tuple < refs[j].Tuple })
		for _, ref := range refs {
			if err := tx.deleteRow(gv.EdgeTable(), ref.Tuple); err != nil {
				return err
			}
		}
	}
	if err := t.Delete(id); err != nil {
		return err
	}
	views := tx.views(t)
	for i, gv := range views {
		if err := gv.OnDelete(t.Name(), row); err != nil {
			for j := i - 1; j >= 0; j-- {
				_ = views[j].OnInsert(t.Name(), id, row)
			}
			if rid, ierr := t.Insert(row); ierr != nil || rid != id {
				return fmt.Errorf("%v (and undo failed: slot %d not restored)", err, id)
			}
			return err
		}
	}
	tx.journal = append(tx.journal, undoOp{kind: undoDelete, table: t, id: id, oldRow: row})
	return tx.maintainMatViewsDelete(t, id)
}

// updateRow updates a tuple in place and maintains dependent views.
func (tx *txn) updateRow(t *storage.Table, id storage.RowID, newRow types.Row) error {
	oldRow, ok := t.Get(id)
	if !ok {
		return fmt.Errorf("update of dead row %d in table %s", id, t.Name())
	}
	if err := t.Update(id, newRow); err != nil {
		return err
	}
	stored, _ := t.Get(id)
	views := tx.views(t)
	for i, gv := range views {
		if err := gv.OnUpdate(t.Name(), id, oldRow, stored); err != nil {
			for j := i - 1; j >= 0; j-- {
				_ = views[j].OnUpdate(t.Name(), id, stored, oldRow)
			}
			_ = t.Update(id, oldRow)
			return err
		}
	}
	tx.journal = append(tx.journal, undoOp{kind: undoUpdate, table: t, id: id, oldRow: oldRow, newRow: stored})
	return tx.maintainMatViewsUpdate(t, id, stored)
}

// rollback undoes the journal in reverse order.
func (tx *txn) rollback() error {
	for i := len(tx.journal) - 1; i >= 0; i-- {
		op := tx.journal[i]
		switch op.kind {
		case undoInsert:
			for _, gv := range tx.views(op.table) {
				_ = gv.OnDelete(op.table.Name(), op.newRow)
			}
			if err := op.table.UndoInsert(op.id, op.extended); err != nil {
				return fmt.Errorf("rollback: %v", err)
			}
		case undoDelete:
			rid, err := op.table.Insert(op.oldRow)
			if err != nil {
				return fmt.Errorf("rollback: %v", err)
			}
			if rid != op.id {
				return fmt.Errorf("rollback: slot %d not restored (got %d)", op.id, rid)
			}
			for _, gv := range tx.views(op.table) {
				if err := gv.OnInsert(op.table.Name(), op.id, op.oldRow); err != nil {
					return fmt.Errorf("rollback: %v", err)
				}
			}
		case undoUpdate:
			if err := op.table.Update(op.id, op.oldRow); err != nil {
				return fmt.Errorf("rollback: %v", err)
			}
			for _, gv := range tx.views(op.table) {
				if err := gv.OnUpdate(op.table.Name(), op.id, op.newRow, op.oldRow); err != nil {
					return fmt.Errorf("rollback: %v", err)
				}
			}
		case undoMapSet:
			op.mv.MapDelete(op.id)
		case undoMapDel:
			op.mv.MapSet(op.id, op.viewID)
		}
	}
	tx.journal = nil
	return nil
}

func (tx *txn) abort(err error) error {
	if rerr := tx.rollback(); rerr != nil {
		return fmt.Errorf("%v; additionally the transaction rollback failed, database may be inconsistent: %v", err, rerr)
	}
	return err
}

func (e *Engine) runInsert(s *sql.Insert, params types.Row) (*Result, error) {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	if e.cat.IsMatViewTable(s.Table) {
		return nil, fmt.Errorf("materialized view %s is read-only; modify its base table", s.Table)
	}
	schema := t.Schema()
	// Column mapping.
	var positions []int
	if len(s.Cols) == 0 {
		positions = make([]int, schema.Len())
		for i := range positions {
			positions[i] = i
		}
	} else {
		positions = make([]int, len(s.Cols))
		for i, c := range s.Cols {
			idx, err := schema.Resolve("", c)
			if err != nil {
				return nil, err
			}
			positions[i] = idx
		}
	}
	tx := &txn{e: e}
	env := &expr.Env{Params: params}
	for _, exprs := range s.Rows {
		if len(exprs) != len(positions) {
			return nil, tx.abort(fmt.Errorf("INSERT into %s: %d values for %d columns",
				s.Table, len(exprs), len(positions)))
		}
		row := make(types.Row, schema.Len())
		for i, ex := range exprs {
			v, err := expr.Eval(ex, env)
			if err != nil {
				return nil, tx.abort(fmt.Errorf("INSERT into %s: %v", s.Table, err))
			}
			row[positions[i]] = v
		}
		if _, err := tx.insertRow(t, row); err != nil {
			return nil, tx.abort(err)
		}
	}
	return &Result{Affected: len(s.Rows)}, nil
}

// targetRows resolves a DML WHERE clause to the ids of the rows it selects,
// reaching them the way a SELECT leaf would (plan.ChooseAccess picks the
// index, exec.Access.RowIDs reads it) over the live table, which the writer
// owns. Point predicates on the primary key or an indexed column avoid the
// scan (the hot path of prepared point DML, VoltDB's bread and butter).
func targetRows(t *storage.Table, where expr.Expr, params types.Row) ([]storage.RowID, error) {
	acc, rest := plan.ChooseAccess(t, t.Schema(), expr.SplitConjuncts(where))
	ids, err := acc.RowIDs(t, t, params)
	if err != nil || len(rest) == 0 {
		return ids, err
	}
	filter, err := expr.NewBinder(t.Schema()).Bind(expr.JoinConjuncts(rest).Clone())
	if err != nil {
		return nil, err
	}
	match := ids[:0]
	for _, id := range ids {
		row, _ := t.Get(id)
		ok, err := expr.EvalBool(filter, &expr.Env{Row: row, Params: params})
		if err != nil {
			return nil, err
		}
		if ok {
			match = append(match, id)
		}
	}
	return match, nil
}

func (e *Engine) runUpdate(s *sql.Update, params types.Row) (*Result, error) {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	if e.cat.IsMatViewTable(s.Table) {
		return nil, fmt.Errorf("materialized view %s is read-only; modify its base table", s.Table)
	}
	schema := t.Schema()
	binder := expr.NewBinder(schema)
	type setOp struct {
		pos int
		ex  expr.Expr
	}
	sets := make([]setOp, len(s.Sets))
	for i, sc := range s.Sets {
		pos, err := schema.Resolve("", sc.Col)
		if err != nil {
			return nil, err
		}
		be, err := binder.Bind(sc.E.Clone())
		if err != nil {
			return nil, err
		}
		sets[i] = setOp{pos: pos, ex: be}
	}
	ids, err := targetRows(t, s.Where, params)
	if err != nil {
		return nil, err
	}
	tx := &txn{e: e}
	for _, id := range ids {
		oldRow, ok := t.Get(id)
		if !ok {
			continue
		}
		newRow := oldRow.Clone()
		env := &expr.Env{Row: oldRow, Params: params}
		for _, so := range sets {
			v, err := expr.Eval(so.ex, env)
			if err != nil {
				return nil, tx.abort(err)
			}
			newRow[so.pos] = v
		}
		if err := tx.updateRow(t, id, newRow); err != nil {
			return nil, tx.abort(err)
		}
		if err := tx.fixEdgeReferences(t, oldRow, newRow); err != nil {
			return nil, tx.abort(err)
		}
	}
	return &Result{Affected: len(ids)}, nil
}

// fixEdgeReferences preserves the referential integrity of edges
// relational-sources when a vertex identifier changes (§3.3.1): every edge
// tuple referencing the old id is rewritten to the new id, which in turn
// re-maintains the topology of every view over that edge table.
func (tx *txn) fixEdgeReferences(t *storage.Table, oldRow, newRow types.Row) error {
	for _, gv := range tx.views(t) {
		if !gv.IsVertexSource(t.Name()) {
			continue
		}
		pos := gv.VertexIDSourceColumn()
		oldID, newID := oldRow[pos], newRow[pos]
		if oldID.Kind != types.KindInt || newID.Kind != types.KindInt || oldID.I == newID.I {
			continue
		}
		etab := gv.EdgeTable()
		fromPos, toPos := gv.EdgeEndpointSourceColumns()
		type fix struct {
			id  storage.RowID
			row types.Row
		}
		var fixes []fix
		etab.Scan(func(id storage.RowID, row types.Row) bool {
			if (row[fromPos].Kind == types.KindInt && row[fromPos].I == oldID.I) ||
				(row[toPos].Kind == types.KindInt && row[toPos].I == oldID.I) {
				nr := row.Clone()
				if nr[fromPos].Kind == types.KindInt && nr[fromPos].I == oldID.I {
					nr[fromPos] = newID
				}
				if nr[toPos].Kind == types.KindInt && nr[toPos].I == oldID.I {
					nr[toPos] = newID
				}
				fixes = append(fixes, fix{id: id, row: nr})
			}
			return true
		})
		for _, f := range fixes {
			if err := tx.updateRow(etab, f.id, f.row); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *Engine) runDelete(s *sql.Delete, params types.Row) (*Result, error) {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	if e.cat.IsMatViewTable(s.Table) {
		return nil, fmt.Errorf("materialized view %s is read-only; modify its base table", s.Table)
	}
	ids, err := targetRows(t, s.Where, params)
	if err != nil {
		return nil, err
	}
	tx := &txn{e: e}
	n := 0
	for _, id := range ids {
		if _, live := t.Get(id); !live {
			continue // already cascaded away by an earlier delete
		}
		if err := tx.deleteRow(t, id); err != nil {
			return nil, tx.abort(err)
		}
		n++
	}
	return &Result{Affected: n}, nil
}
