package core

// Clone() here is fine: the file holds no graph.Graph.
func where(s *sql.Select) expr.Expr { return s.Where.Clone() }
