// Command grfusion-server serves a GRFusion database over TCP with the
// newline-delimited JSON protocol of internal/server (connect with
// `grfusion -connect addr`).
//
// Usage:
//
//	grfusion-server [-addr 127.0.0.1:21212] [-restore db.snapshot] [-script init.sql]
//	                [-mem bytes] [-workers N]
//	                [-query-timeout 0] [-max-concurrent 0] [-idle-timeout 0]
//	                [-drain-timeout 10s] [-slow-query 0]
//	                [-metrics-addr 127.0.0.1:21213]
//	                [-wal dir] [-wal-fsync always|interval|off]
//	                [-wal-fsync-interval 50ms] [-checkpoint-every N]
//	                [-wal-soft-free bytes] [-wal-hard-free bytes]
//	                [-heal-base 25ms] [-heal-max 2s]
//
// -metrics-addr serves the observability endpoint over HTTP: /metrics is
// the flat JSON form of SHOW METRICS, /debug/vars the expvar view,
// /healthz the durability health (always 200), /readyz the write
// readiness (503 while the engine is degraded to read-only).
// -slow-query arms the engine's slow-query log at the given threshold.
//
// -wal makes the server durable: every mutating statement is logged to a
// write-ahead log in the directory once it applies, checkpoints bound
// recovery time, and startup recovers whatever a previous process
// (crashed or not) left there.
//
// -wal-soft-free and -wal-hard-free are disk-space watermarks: free space
// under the soft mark forces a checkpoint + WAL truncation to give space
// back; under the hard mark the server degrades to read-only (reads,
// EXPLAIN, SHOW and the health surface keep serving; writes fail fast
// with a typed degraded error) and a background prober with capped
// exponential backoff (-heal-base/-heal-max) restores read-write once the
// disk recovers.
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight statements finish
// and flush their responses, bounded by -drain-timeout; a durable server
// then takes a final checkpoint, so the next start replays no WAL.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"grfusion/internal/core"
	"grfusion/internal/server"
	"grfusion/internal/wal"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:21212", "listen address")
		restore = flag.String("restore", "", "restore a snapshot before serving")
		script  = flag.String("script", "", "run a SQL script before serving")
		mem     = flag.Int64("mem", 0, "intermediate-memory budget per statement (bytes)")
		workers = flag.Int("workers", 0, "traversal worker pool per multi-source path query (<=1 = sequential)")

		queryTimeout  = flag.Duration("query-timeout", 0, "per-statement execution deadline (0 = none; SET QUERY_TIMEOUT adjusts at runtime)")
		maxConcurrent = flag.Int("max-concurrent", 0, "max statements executing at once; excess requests are shed with a retryable error (0 = unlimited)")
		idleTimeout   = flag.Duration("idle-timeout", 0, "close connections idle this long (0 = never)")
		writeTimeout  = flag.Duration("write-timeout", 0, "per-response write deadline (0 = none)")
		drainTimeout  = flag.Duration("drain-timeout", 0, "graceful-shutdown drain bound (0 = 10s default, negative = unbounded)")

		slowQuery   = flag.Duration("slow-query", 0, "log statements slower than this (0 = disabled; SET SLOW_QUERY adjusts at runtime)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (JSON) and /debug/vars (expvar) over HTTP on this address (empty = disabled)")

		walDir     = flag.String("wal", "", "durable server: write-ahead log + checkpoints in this directory, recovering its contents on startup")
		walFsync   = flag.String("wal-fsync", "always", "WAL fsync policy: always, interval, or off (SET WAL_FSYNC adjusts at runtime)")
		walFsyncIv = flag.Duration("wal-fsync-interval", 0, "background sync period under -wal-fsync interval (0 = 50ms default)")
		walEvery   = flag.Int("checkpoint-every", 0, "automatic checkpoint after N logged statements (0 = default, negative = manual only; SET CHECKPOINT_EVERY adjusts at runtime)")

		walSoftFree = flag.Int64("wal-soft-free", 0, "soft disk-space watermark in bytes: force a checkpoint + WAL truncation when free space drops below it (0 = disabled)")
		walHardFree = flag.Int64("wal-hard-free", 0, "hard disk-space watermark in bytes: degrade to read-only when free space drops below it (0 = disabled)")
		healBase    = flag.Duration("heal-base", 0, "first self-heal probe backoff after degrading (0 = 25ms default)")
		healMax     = flag.Duration("heal-max", 0, "self-heal probe backoff cap (0 = 2s default)")
	)
	flag.Parse()

	opts := core.Options{
		MemLimit:     *mem,
		Workers:      *workers,
		QueryTimeout: *queryTimeout,
		SlowQuery:    *slowQuery,
	}
	if *walDir != "" {
		if *restore != "" {
			fatal(fmt.Errorf("-restore and -wal are mutually exclusive (a durable server recovers from its WAL directory)"))
		}
		policy, err := wal.ParseFsyncPolicy(*walFsync)
		if err != nil {
			fatal(err)
		}
		opts.Durability = core.Durability{
			Dir:             *walDir,
			Fsync:           policy,
			FsyncInterval:   *walFsyncIv,
			CheckpointEvery: *walEvery,
			SoftFreeBytes:   *walSoftFree,
			HardFreeBytes:   *walHardFree,
			HealBase:        *healBase,
			HealMax:         *healMax,
		}
	}
	eng, recovery, err := core.Open(opts)
	if err != nil {
		fatal(err)
	}
	if recovery != nil {
		fmt.Fprintf(os.Stderr, "grfusion-server: durable in %s: %s\n", *walDir, recovery)
	}
	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			fatal(err)
		}
		err = eng.Restore(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "grfusion-server: restored %s\n", *restore)
	}
	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fatal(err)
		}
		if _, err := eng.ExecuteScript(string(data)); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "grfusion-server: ran %s\n", *script)
	}
	srv := server.NewWith(eng, server.Config{
		MaxConcurrent: *maxConcurrent,
		IdleTimeout:   *idleTimeout,
		WriteTimeout:  *writeTimeout,
		DrainTimeout:  *drainTimeout,
	})

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "grfusion-server: metrics on http://%s/metrics\n", ml.Addr())
		go func() {
			if err := http.Serve(ml, server.MetricsMux(eng)); err != nil {
				fmt.Fprintf(os.Stderr, "grfusion-server: metrics endpoint: %v\n", err)
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "grfusion-server: %v: draining and shutting down\n", s)
		srv.Shutdown()
		close(done)
	}()

	fmt.Fprintf(os.Stderr, "grfusion-server: listening on %s\n", *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		fatal(err)
	}
	<-done
	if eng.Durable() {
		// All statements have drained; take the final checkpoint so the
		// next start replays nothing.
		if err := eng.Shutdown(); err != nil {
			fatal(fmt.Errorf("shutdown checkpoint: %w", err))
		}
		fmt.Fprintln(os.Stderr, "grfusion-server: final checkpoint written")
	}
	fmt.Fprintln(os.Stderr, "grfusion-server: bye")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "grfusion-server: %v\n", err)
	os.Exit(1)
}
