// Command grload generates one of the synthetic evaluation datasets and
// emits it as a SQL script (ready for the grfusion shell's \i), as an
// engine snapshot with the graph view already built, or streams it
// straight into a running grfusion-server over the binary wire
// protocol's COPY bulk path.
//
// Usage:
//
//	grload -dataset road -scale 1.0 -sql road.sql
//	grload -dataset twitter -snapshot twitter.snapshot
//	grload -dataset twitter -copy localhost:5432
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"grfusion/internal/bench"
	"grfusion/internal/datagen"
	"grfusion/internal/plan"
	"grfusion/internal/server"
	"grfusion/internal/types"
)

func main() {
	var (
		name  = flag.String("dataset", "road", "road | protein | dblp | twitter")
		scale = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed  = flag.Int64("seed", 42, "generator seed")
		sqlF  = flag.String("sql", "", "write a SQL script to this file ('-' for stdout)")
		snapF = flag.String("snapshot", "", "write an engine snapshot to this file")
		copyF = flag.String("copy", "", "stream the dataset into the grfusion-server at this address via binary COPY")
	)
	flag.Parse()
	if *sqlF == "" && *snapF == "" && *copyF == "" {
		fmt.Fprintln(os.Stderr, "grload: need -sql, -snapshot, or -copy")
		os.Exit(2)
	}
	ds := bench.Datasets(bench.Config{Scale: *scale, Seed: *seed})
	d, ok := ds[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "grload: unknown dataset %q\n", *name)
		os.Exit(2)
	}
	if *sqlF != "" {
		var out io.Writer = os.Stdout
		if *sqlF != "-" {
			f, err := os.Create(*sqlF)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		writeSQL(out, d)
	}
	if *snapF != "" {
		eng, err := bench.LoadGRFusion(d, planOpts())
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*snapF)
		if err != nil {
			fatal(err)
		}
		if err := eng.Snapshot(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "grload: %s snapshot written (%d vertices, %d edges)\n",
			d.Name, len(d.Vertices), len(d.Edges))
	}
	if *copyF != "" {
		if err := copyInto(*copyF, d); err != nil {
			fatal(err)
		}
	}
}

// copyInto streams the dataset into a running server: DDL first, then
// one COPY per table (each a single streamed bulk load with one MVCC
// publish), and the graph view last so its build pays one pass over
// settled tables.
func copyInto(addr string, d *datagen.Dataset) error {
	c, err := server.DialWith(addr, server.Options{
		ConnectTimeout: 10 * time.Second,
		Protocol:       server.ProtoBinary,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	ddl := []string{
		fmt.Sprintf("CREATE TABLE %s_v (vid BIGINT PRIMARY KEY, name VARCHAR)", d.Name),
		fmt.Sprintf("CREATE TABLE %s_e (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE, sel BIGINT, lbl VARCHAR)", d.Name),
	}
	for _, q := range ddl {
		if _, err := c.Exec(q); err != nil {
			return err
		}
	}

	const batch = 4096
	t0 := time.Now()
	ci, err := c.CopyIn(d.Name+"_v", nil, len(d.Vertices))
	if err != nil {
		return err
	}
	rows := make([]types.Row, 0, batch)
	for _, v := range d.Vertices {
		rows = append(rows, types.Row{types.NewInt(v.ID), types.NewString(v.Name)})
		if len(rows) == batch {
			if err := ci.Send(rows); err != nil {
				return err
			}
			rows = rows[:0]
		}
	}
	if err := ci.Send(rows); err != nil {
		return err
	}
	if _, err := ci.Close(); err != nil {
		return fmt.Errorf("vertex copy: %w", err)
	}

	ci, err = c.CopyIn(d.Name+"_e", nil, len(d.Edges))
	if err != nil {
		return err
	}
	rows = rows[:0]
	for _, e := range d.Edges {
		rows = append(rows, types.Row{
			types.NewInt(e.ID), types.NewInt(e.Src), types.NewInt(e.Dst),
			types.NewFloat(e.Weight), types.NewInt(e.Sel), types.NewString(e.Label),
		})
		if len(rows) == batch {
			if err := ci.Send(rows); err != nil {
				return err
			}
			rows = rows[:0]
		}
	}
	if err := ci.Send(rows); err != nil {
		return err
	}
	if _, err := ci.Close(); err != nil {
		return fmt.Errorf("edge copy: %w", err)
	}

	dir := "DIRECTED"
	if !d.Directed {
		dir = "UNDIRECTED"
	}
	view := fmt.Sprintf(`CREATE %s GRAPH VIEW %s
  VERTEXES(ID = vid, name = name) FROM %s_v
  EDGES(ID = eid, FROM = src, TO = dst, w = w, sel = sel, lbl = lbl) FROM %s_e`,
		dir, d.Name, d.Name, d.Name)
	if _, err := c.Exec(view); err != nil {
		return err
	}
	secs := time.Since(t0).Seconds()
	fmt.Fprintf(os.Stderr, "grload: streamed %s into %s (%d vertices, %d edges) in %.2fs (%.0f edges/sec)\n",
		d.Name, addr, len(d.Vertices), len(d.Edges), secs, float64(len(d.Edges))/secs)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "grload: %v\n", err)
	os.Exit(1)
}

func writeSQL(out io.Writer, d *datagen.Dataset) {
	fmt.Fprintf(out, "CREATE TABLE %s_v (vid BIGINT PRIMARY KEY, name VARCHAR);\n", d.Name)
	fmt.Fprintf(out, "CREATE TABLE %s_e (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE, sel BIGINT, lbl VARCHAR);\n", d.Name)
	const batch = 256
	for i := 0; i < len(d.Vertices); i += batch {
		fmt.Fprintf(out, "INSERT INTO %s_v VALUES", d.Name)
		for j := i; j < i+batch && j < len(d.Vertices); j++ {
			if j > i {
				fmt.Fprint(out, ",")
			}
			v := d.Vertices[j]
			fmt.Fprintf(out, " (%d, '%s')", v.ID, v.Name)
		}
		fmt.Fprintln(out, ";")
	}
	for i := 0; i < len(d.Edges); i += batch {
		fmt.Fprintf(out, "INSERT INTO %s_e VALUES", d.Name)
		for j := i; j < i+batch && j < len(d.Edges); j++ {
			if j > i {
				fmt.Fprint(out, ",")
			}
			e := d.Edges[j]
			fmt.Fprintf(out, " (%d, %d, %d, %g, %d, '%s')", e.ID, e.Src, e.Dst, e.Weight, e.Sel, e.Label)
		}
		fmt.Fprintln(out, ";")
	}
	dir := "DIRECTED"
	if !d.Directed {
		dir = "UNDIRECTED"
	}
	fmt.Fprintf(out, `CREATE %s GRAPH VIEW %s
  VERTEXES(ID = vid, name = name) FROM %s_v
  EDGES(ID = eid, FROM = src, TO = dst, w = w, sel = sel, lbl = lbl) FROM %s_e;
`, dir, d.Name, d.Name, d.Name)
}

func planOpts() plan.Options { return plan.Options{} }
