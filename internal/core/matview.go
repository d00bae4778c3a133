package core

import (
	"fmt"
	"strings"

	"grfusion/internal/catalog"
	"grfusion/internal/expr"
	"grfusion/internal/sql"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// createMatView handles CREATE MATERIALIZED VIEW: a single-table
// projection/selection materialized into a backing table and maintained
// incrementally by the DML path (§2, §3.3.2 let graph views sit on such
// views, so maintenance chains: base DML → view rows → graph topology).
//
// Known limitation (shared with the paper's single-table-view scope): a
// base UPDATE that changes a vertex-identifier column projected through a
// materialized view renames the topology vertex but does not rewrite edge
// tuples referencing the old id in *other* tables (the §3.3.1 referential
// fixup runs only for graph views built directly over the updated table).
// Identifier updates are rare (§3.3.1); update ids on directly-sourced
// graph views or rebuild the dependent views.
func (e *Engine) createMatView(s *sql.CreateMatView) (*Result, error) {
	base, ok := e.cat.Table(s.Base)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Base)
	}
	baseSchema := base.Schema()

	// Resolve the projection: plain column references only (a materialized
	// view is a stored projection, not a computed query).
	type viewCol struct {
		pos  int
		name string
	}
	var cols []viewCol
	for _, item := range s.Items {
		if item.Star {
			if item.StarQual != "" && !strings.EqualFold(item.StarQual, s.Base) {
				return nil, fmt.Errorf("materialized view %s: unknown qualifier %q", s.Name, item.StarQual)
			}
			for i, c := range baseSchema.Columns {
				cols = append(cols, viewCol{pos: i, name: c.Name})
			}
			continue
		}
		ref, ok := item.Expr.(*expr.RawRef)
		if !ok || len(ref.Parts) > 2 || ref.Parts[0].HasIndex ||
			(len(ref.Parts) == 2 && ref.Parts[1].HasIndex) {
			return nil, fmt.Errorf("materialized view %s: select item %s must be a plain column",
				s.Name, item.Expr)
		}
		qual, name := "", ref.Parts[0].Name
		if len(ref.Parts) == 2 {
			qual, name = ref.Parts[0].Name, ref.Parts[1].Name
		}
		if qual != "" && !strings.EqualFold(qual, s.Base) {
			return nil, fmt.Errorf("materialized view %s: unknown qualifier %q", s.Name, qual)
		}
		pos, err := baseSchema.Resolve("", name)
		if err != nil {
			return nil, fmt.Errorf("materialized view %s: %v", s.Name, err)
		}
		outName := name
		if item.Alias != "" {
			outName = item.Alias
		}
		cols = append(cols, viewCol{pos: pos, name: outName})
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("materialized view %s: empty select list", s.Name)
	}

	// Bind and validate the predicate: deterministic, aggregate-free, over
	// base columns only (the parser rejects parameters).
	var pred expr.Expr
	if s.Where != nil {
		var err error
		pred, err = expr.NewBinder(baseSchema).Bind(s.Where.Clone())
		if err != nil {
			return nil, fmt.Errorf("materialized view %s: %v", s.Name, err)
		}
		aggregate := false
		expr.Walk(pred, func(n expr.Expr) bool {
			if f, ok := n.(*expr.FuncCall); ok && f.IsAggregate() {
				aggregate = true
			}
			return !aggregate
		})
		if aggregate {
			return nil, fmt.Errorf("materialized view %s: aggregates are not allowed in the WHERE clause", s.Name)
		}
	}

	// Backing table.
	outCols := make([]types.Column, len(cols))
	positions := make([]int, len(cols))
	seen := map[string]bool{}
	for i, c := range cols {
		key := strings.ToLower(c.name)
		if seen[key] {
			return nil, fmt.Errorf("materialized view %s: duplicate column %q", s.Name, c.name)
		}
		seen[key] = true
		outCols[i] = types.Column{Qualifier: s.Name, Name: c.name, Type: baseSchema.Columns[c.pos].Type}
		positions[i] = c.pos
	}
	backing, err := storage.NewTable(s.Name, types.NewSchema(outCols...), nil)
	if err != nil {
		return nil, err
	}
	mv, err := catalog.NewMatView(s.Name, base, backing, positions, pred, matViewSQL(s, pred))
	if err != nil {
		return nil, err
	}
	if err := e.cat.RegisterMatView(mv); err != nil {
		return nil, err
	}
	return &Result{Affected: backing.Len()}, nil
}

// matViewSQL reconstructs the defining statement for snapshots.
func matViewSQL(s *sql.CreateMatView, pred expr.Expr) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE MATERIALIZED VIEW %s AS SELECT ", s.Name)
	for i, item := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if item.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(item.Expr.String())
		if item.Alias != "" {
			sb.WriteString(" AS " + item.Alias)
		}
	}
	fmt.Fprintf(&sb, " FROM %s", s.Base)
	if pred != nil {
		fmt.Fprintf(&sb, " WHERE %s", pred)
	}
	return sb.String()
}

// maintainMatViewsInsert propagates a freshly inserted base row into every
// dependent materialized view (inside the same transaction).
func (tx *txn) maintainMatViewsInsert(t *storage.Table, id storage.RowID, row types.Row) error {
	for _, mv := range tx.e.cat.DependentMatViews(t.Name()) {
		in, err := mv.Matches(row)
		if err != nil {
			return err
		}
		if !in {
			continue
		}
		vid, err := tx.insertRow(mv.Table(), mv.Project(row))
		if err != nil {
			return err
		}
		tx.setMap(mv, id, vid)
	}
	return nil
}

// maintainMatViewsDelete removes the materialized image of a deleted base
// row from every dependent view.
func (tx *txn) maintainMatViewsDelete(t *storage.Table, id storage.RowID) error {
	for _, mv := range tx.e.cat.DependentMatViews(t.Name()) {
		vid, ok := mv.Lookup(id)
		if !ok {
			continue
		}
		if err := tx.deleteRow(mv.Table(), vid); err != nil {
			return err
		}
		tx.delMap(mv, id, vid)
	}
	return nil
}

// maintainMatViewsUpdate reconciles a base-row update with every dependent
// view: rows enter, leave, or change inside the view as the predicate and
// projection dictate.
func (tx *txn) maintainMatViewsUpdate(t *storage.Table, id storage.RowID, newRow types.Row) error {
	for _, mv := range tx.e.cat.DependentMatViews(t.Name()) {
		vid, wasIn := mv.Lookup(id)
		isIn, err := mv.Matches(newRow)
		if err != nil {
			return err
		}
		switch {
		case wasIn && isIn:
			if err := tx.updateRow(mv.Table(), vid, mv.Project(newRow)); err != nil {
				return err
			}
		case wasIn && !isIn:
			if err := tx.deleteRow(mv.Table(), vid); err != nil {
				return err
			}
			tx.delMap(mv, id, vid)
		case !wasIn && isIn:
			nvid, err := tx.insertRow(mv.Table(), mv.Project(newRow))
			if err != nil {
				return err
			}
			tx.setMap(mv, id, nvid)
		}
	}
	return nil
}

func (tx *txn) setMap(mv *catalog.MatView, base, view storage.RowID) {
	mv.MapSet(base, view)
	tx.journal = append(tx.journal, undoOp{kind: undoMapSet, mv: mv, id: base, viewID: view})
}

func (tx *txn) delMap(mv *catalog.MatView, base, view storage.RowID) {
	mv.MapDelete(base)
	tx.journal = append(tx.journal, undoOp{kind: undoMapDel, mv: mv, id: base, viewID: view})
}
