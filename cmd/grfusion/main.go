// Command grfusion is an interactive SQL shell over a GRFusion database.
//
// Statements end with ';'. Shell commands:
//
//	\q               quit (a durable session checkpoints first)
//	\explain <sql>   show the physical plan of a SELECT
//	\save <file>     write a snapshot (temp file, fsync, atomic rename)
//	\load <file>     restore a snapshot into the (empty) database
//	\i <file>        execute a SQL script
//	\checkpoint      force a durable checkpoint and truncate the WAL
//	\health          durability health (works remotely too; the wire
//	                 health command bypasses admission control, so it
//	                 answers even from an overloaded or degraded server)
//
// Usage:
//
//	grfusion [-restore db.snapshot] [-script init.sql] [-mem bytes] [-timeout 5s]
//	grfusion -wal /var/lib/grfusion [-wal-fsync always|interval|off] [-checkpoint-every N]
//	grfusion -connect 127.0.0.1:21212      # talk to a grfusion-server
//
// With -wal the session is durable: every mutating statement is logged
// once it applies, and on startup the database recovers whatever a
// previous session (crashed or not) left in the directory.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"grfusion"
	"grfusion/internal/server"
	"grfusion/internal/wal"
)

// executor abstracts the local embedded engine and the remote client so
// the shell works identically against both.
type executor interface {
	Exec(query string) (*grfusion.Result, error)
}

// remoteExec adapts a server.Client to the executor interface.
type remoteExec struct{ c *server.Client }

func (r remoteExec) Exec(query string) (*grfusion.Result, error) { return r.c.Exec(query) }

func main() {
	var (
		restore = flag.String("restore", "", "restore a snapshot before starting")
		script  = flag.String("script", "", "run a SQL script before starting")
		mem     = flag.Int64("mem", 0, "intermediate-memory budget per statement (bytes)")
		connect = flag.String("connect", "", "connect to a grfusion-server instead of running embedded")
		timeout = flag.Duration("timeout", 0, "per-statement deadline (0 = none); sent as timeout_ms in remote mode")

		walDir     = flag.String("wal", "", "durable session: write-ahead log + checkpoints in this directory, recovering its contents on startup")
		walFsync   = flag.String("wal-fsync", "always", "WAL fsync policy: always, interval, or off")
		walEvery   = flag.Int("checkpoint-every", 0, "automatic checkpoint after N logged statements (0 = default, negative = manual only)")
		walFsyncIv = flag.Duration("wal-fsync-interval", 0, "background sync period under -wal-fsync interval (0 = 50ms default)")
	)
	flag.Parse()

	var db *grfusion.DB
	var exec executor
	if *connect != "" {
		if *walDir != "" {
			fmt.Fprintln(os.Stderr, "grfusion: -wal requires embedded mode")
			os.Exit(1)
		}
		c, err := server.DialWith(*connect, server.Options{RequestTimeout: *timeout})
		if err != nil {
			fmt.Fprintf(os.Stderr, "grfusion: %v\n", err)
			os.Exit(1)
		}
		defer c.Close()
		exec = remoteExec{c: c}
		fmt.Println("connected to", *connect)
	} else {
		cfg := grfusion.Config{MemLimit: *mem, QueryTimeout: *timeout}
		if *walDir != "" {
			cfg.WALDir = *walDir
			cfg.WALFsync = *walFsync
			cfg.WALFsyncInterval = *walFsyncIv
			cfg.CheckpointEvery = *walEvery
			var info *grfusion.RecoveryInfo
			var err error
			db, info, err = grfusion.OpenDurable(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "grfusion: recovery: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("durable session in %s: %s\n", *walDir, info)
		} else {
			db = grfusion.Open(cfg)
		}
		exec = db
	}
	if *restore != "" && db == nil {
		fmt.Fprintln(os.Stderr, "grfusion: -restore requires embedded mode")
		os.Exit(1)
	}
	if db != nil && *restore != "" {
		if err := restoreFile(db, *restore); err != nil {
			fmt.Fprintf(os.Stderr, "grfusion: %v\n", err)
			os.Exit(1)
		}
	}
	if *script != "" {
		if db == nil {
			fmt.Fprintln(os.Stderr, "grfusion: -script requires embedded mode")
			os.Exit(1)
		}
		if err := runScript(db, *script); err != nil {
			fmt.Fprintf(os.Stderr, "grfusion: %v\n", err)
			os.Exit(1)
		}
	}

	runShell(db, exec, os.Stdin, os.Stdout)
	if db != nil && db.Engine().Durable() {
		if err := db.Shutdown(); err != nil {
			fmt.Fprintf(os.Stderr, "grfusion: shutdown checkpoint: %v\n", err)
			os.Exit(1)
		}
	}
}

// runShell drives the read-eval-print loop. It is split from main (and
// parameterized over in/out) so scripted sessions can be tested.
func runShell(db *grfusion.DB, exec executor, in io.Reader, out io.Writer) {
	fmt.Fprintln(out, "GRFusion shell — graph-relational SQL. End statements with ';', \\q quits.")
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(out, "grfusion> ")
		} else {
			fmt.Fprint(out, "      ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if handleMeta(out, db, exec, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			execute(out, exec, buf.String())
			buf.Reset()
		}
		prompt()
	}
}

// handleMeta executes a backslash command, reporting whether to quit.
// Snapshot/script/explain commands require embedded mode (db non-nil);
// \health works in both modes.
func handleMeta(out io.Writer, db *grfusion.DB, exec executor, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit", "\\health":
	default:
		if db == nil {
			fmt.Fprintln(out, "command", fields[0], "requires embedded mode (no -connect)")
			return false
		}
	}
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\health":
		printHealth(out, exec)
	case "\\explain":
		text, err := db.Explain(strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain")))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		fmt.Fprint(out, text)
	case "\\save":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\save <file>")
			return false
		}
		if err := saveSnapshot(db, fields[1]); err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprintln(out, "snapshot written to", fields[1])
		}
	case "\\load":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\load <file>")
			return false
		}
		if err := restoreFile(db, fields[1]); err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprintln(out, "snapshot restored from", fields[1])
		}
	case "\\i":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\i <file>")
			return false
		}
		if err := runScript(db, fields[1]); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case "\\checkpoint":
		if err := db.Checkpoint(); err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprintln(out, "checkpoint written, wal truncated")
		}
	default:
		fmt.Fprintln(out, "unknown command", fields[0], "(try \\q, \\explain, \\save, \\load, \\i, \\checkpoint, \\health)")
	}
	return false
}

// printHealth renders the durability health. In remote mode it uses the
// wire health command, which bypasses admission control and so answers
// even while the server sheds load or rejects writes as degraded.
func printHealth(out io.Writer, exec executor) {
	if re, ok := exec.(remoteExec); ok {
		h, err := re.c.Health()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		names := make([]string, 0, len(h))
		for name := range h {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, " %-16s %s\n", name, h[name])
		}
		return
	}
	execute(out, exec, "SHOW HEALTH;")
}

// saveSnapshot writes a snapshot with the WAL's atomic-file protocol —
// temp file, fsync, rename — so an interrupted \save can never tear an
// existing snapshot: the destination holds either the old bytes or the
// complete new ones.
func saveSnapshot(db *grfusion.DB, path string) error {
	return wal.WriteFileAtomic(path, db.Snapshot)
}

func restoreFile(db *grfusion.DB, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.Restore(f)
}

func runScript(db *grfusion.DB, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return db.ExecScript(string(data))
}

func execute(out io.Writer, exec executor, stmt string) {
	start := time.Now()
	res, err := exec.Exec(stmt)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	elapsed := time.Since(start).Round(time.Microsecond)
	if res.Columns == nil {
		fmt.Fprintf(out, "ok (%d row(s) affected, %s)\n", res.Affected, elapsed)
		return
	}
	printTable(out, res)
	fmt.Fprintf(out, "(%d row(s), %s)\n", len(res.Rows), elapsed)
}

func printTable(out io.Writer, res *grfusion.Result) {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := v.String()
			cells[r][c] = s
			if c < len(widths) && len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	line := func(parts []string) {
		for i, p := range parts {
			fmt.Fprintf(out, " %-*s", widths[i], p)
			if i < len(parts)-1 {
				fmt.Fprint(out, " |")
			}
		}
		fmt.Fprintln(out)
	}
	line(res.Columns)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, row := range cells {
		line(row)
	}
}
