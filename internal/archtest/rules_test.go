// Package archtest checks the module's architecture rules: facts about
// which code may name what, each established when a second mechanism was
// deleted and kept deleted here. The rules are one declarative table,
// checked over the module's source by `go test ./...`; a new invariant is
// a new row, never a script.
//
// Checks are syntactic: Go files are parsed (go/parser), qualified names
// are resolved through each file's own import table, so an import alias
// does not hide a reference, and comments never match. Files under a
// testdata directory, nested modules (benchmark/) and this package, whose
// table necessarily names everything it forbids, are not checked.
package archtest

// The module path every internal import path starts with.
const module = "grfusion/"

// engineSide is where a graph view's topology is bound and executed.
var engineSide = []string{"internal/catalog", "internal/core", "internal/exec", "internal/plan", "internal/server"}

// rules is the architecture table. Each row's fixture, testdata/<id>,
// mirrors the module layout and holds a construct the row must catch.
var rules = []rule{
	{
		id:    "reference-kernels-off-execution-path",
		since: "One traversal kernel family",
		paths: engineSide,
		match: qual(module+"internal/graph", `NewDFS|NewBFS|NewShortest|Reachable|ShortestPath|Ref[A-Z]\w*`),
		why: "the pointer-walking kernels and graph.Ref* are the differential reference: the execution " +
			"path reaches the topology through the CSR only, or the oracle compares the engine with itself",
	},
	{
		id:    "one-wal-append",
		since: "One statement pipeline",
		paths: []string{"internal/core"},
		match: call(`walAppendLocked`),
		want:  1,
		why:   "every write logs through commitLocked: a second caller is a second copy of the write path",
	},
	{
		id:    "one-wal-finish",
		since: "One statement pipeline",
		paths: []string{"internal/core"},
		match: call(`finishWALLocked`),
		want:  1,
		why:   "every logged write counts toward the automatic checkpoint through commitLocked: a second caller is a second copy of the write path",
	},
	{
		id:    "wal-holds-applied-statements",
		since: "Apply, then log",
		paths: []string{"internal", "cmd"},
		files: goFiles,
		match: word(`RollbackLast|OnRollback|WALRollbacks|ReplayErrors|wal\.rollbacks|wal_rollbacks`),
		why: "a statement applies before its record is appended, and its transaction's journal undoes it if the append fails: " +
			"the log holds only statements that applied, so nothing rolls a record back and recovery tolerates no replay error",
	},
	{
		id:    "exec-names-no-snapshot-protocol",
		since: "One table access path",
		paths: []string{"internal/exec"},
		match: word(`LiveVersion|TableSnap`),
		why:   "storage alone knows how an index is read as of a version",
	},
	{
		id:    "one-index-chooser",
		since: "One table access path",
		paths: []string{"."},
		skip:  []string{"internal/storage"},
		match: call(`FindIndexOn`),
		want:  1,
		why:   "plan.ChooseAccess alone picks the index a statement reads (the benchmark module times storage directly)",
	},
	{
		id:    "no-topology-copy",
		since: "O(delta) topology versions",
		paths: engineSide,
		match: word(`ensurePrivateG|MarkShared|sharedG|CSRSnapshot`),
		why:   "publish binds a CSR main and a delta length: nothing copies a topology or marks one shared for copy-on-write",
	},
	{
		id:    "graph-holders-never-clone",
		since: "O(delta) topology versions",
		paths: engineSide,
		match: inFileWith(qual(module+"internal/graph", `Graph`), call(`Clone`)),
		why:   "a *graph.Graph appears on the engine side only as the oracle's rebuild or a materialization, and nothing that holds one clones it",
	},
	{
		id:    "no-committed-baselines",
		since: "One gate",
		paths: []string{"internal", "cmd", "Makefile", ".github"},
		files: anyFile,
		match: word(`BENCH_[a-z_]*\.json`),
		why:   "the claims are one table checked within each run: no committed baseline file comes back as a second measuring system",
	},
	{
		id:    "one-fault-injector",
		since: "One storage fault injector",
		paths: []string{"internal", "cmd"},
		files: goFiles,
		match: word(`FaultHook|CrashHook|CrashPoint|CrashFunc|WriteFileAtomicCrash|chaosInjector`),
		why:   "faultfs.Faulty is the only storage fault injector: a crash is a power cut at any of its operations, not a hook in the WAL or the checkpoint",
	},
	{
		id:    "readers-never-lock",
		since: "One §6.3 statistic, one override, one lock",
		paths: []string{"internal/core"},
		match: anyOf(qual("sync", `RWMutex`), call(`RLock`)),
		why:   "Engine.mu is a writer-only mutex: a reader pins a version and takes no lock",
	},
	{
		id:    "one-statistic",
		since: "One §6.3 statistic, one override, one lock",
		paths: []string{"."},
		match: word(`StartStatistics|RefreshStatistics|FreshStats|InvalidateStats|GraphStats|StatsInterval|ForceTraversal|stats_age_ns|stats_refreshes|lock\.wait_ns`),
		why:   "the §6.3 fan-out is read from the version a plan pins: no statistics object, refresher, engine-wide traversal override or their metric keys",
	},
	{
		id:    "exec-one-binding",
		since: "One graph-view binding",
		paths: []string{"internal/exec"},
		match: anyOf(nilCmp(`At$|Rows$|\bat$`), call(`Live`)),
		why:   "every operator reads the one view binding its plan's Pin gives it: none falls back to the live view",
	},
	{
		id:    "plan-one-binding",
		since: "One graph-view binding",
		paths: []string{"internal/plan"},
		match: anyOf(nilCmp(`Pin$|\bfi\.at$`), word(`pinRows|pinView`)),
		why:   "every planner carries a Pin: the planner has no second, unpinned binding",
	},
	{
		id:    "attributes-resolved-once",
		since: "One graph-view binding",
		paths: []string{"internal/exec", "internal/plan", "internal/expr", "internal/core"},
		match: word(`AttrValue|AttrSourcePos|HasVertexAttr|HasEdgeAttr|AttrKind`),
		why:   "a graph-view attribute is resolved once (GraphView.ResolveAttr) and read by reference, never by name",
	},
	{
		id:    "no-gob",
		since: "Checkpoints are WAL frames",
		paths: []string{"."},
		match: imports(`encoding/gob`),
		why: "a checkpoint is a stream of the WAL's own CRC'd frames and value codec: no second, reflective " +
			"encoding of the database comes back beside it",
	},
	{
		id:    "one-parameter-count",
		since: "One architecture table",
		paths: []string{"internal/core"},
		match: qual(module+"internal/expr", `Param`),
		why:   "the parser numbers every `?` and sql.ParseWithParams returns the count: the engine walks no statement for parameters",
	},
}
