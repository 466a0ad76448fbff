// Package veridb is an SGX-based verifiable relational database, a
// from-scratch reproduction of "VeriDB: An SGX-based Verifiable Database"
// (Zhou et al., SIGMOD 2021).
//
// VeriDB separates a data-intensive but logically simple verifiable
// storage layer from a logically complex query engine with a small memory
// footprint. The engine (and the query compiler) run inside a trusted
// enclave — simulated in this reproduction, see DESIGN.md — while the
// database itself lives in untrusted memory protected by an offline
// memory-checking protocol: every protected read and write folds into
// keyed ReadSet/WriteSet hashes, and a background verification scan
// detects any tampering that bypassed the protected interfaces. Each row
// stores, per indexed column, its key and the next key in order, so the
// presence or absence of any key is proved by a single record, and range
// scans verify completeness by walking an unbroken key chain.
//
// Quick start:
//
//	db, err := veridb.Open(veridb.Config{})
//	...
//	db.Exec(`CREATE TABLE accounts (id INT PRIMARY KEY, balance FLOAT)`)
//	db.Exec(`INSERT INTO accounts VALUES (1, 100.0)`)
//	res, err := db.Exec(`SELECT balance FROM accounts WHERE id = 1`)
//	...
//	if err := db.Verify(); err != nil { /* tampering detected */ }
package veridb

import (
	"context"
	"fmt"
	"time"

	"veridb/internal/client"
	"veridb/internal/core"
	"veridb/internal/enclave"
	"veridb/internal/govern"
	"veridb/internal/plan"
	"veridb/internal/portal"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/vmem"
)

// Value is one SQL value; Row is one result row.
type (
	// Value is a typed SQL value.
	Value = record.Value
	// Row is one tuple of values.
	Row = record.Tuple
	// Type is a column type.
	Type = record.Type
)

// Column types.
const (
	// TypeInt is a 64-bit signed integer column.
	TypeInt = record.TypeInt
	// TypeFloat is a 64-bit float column.
	TypeFloat = record.TypeFloat
	// TypeText is a string column.
	TypeText = record.TypeText
	// TypeBool is a boolean column.
	TypeBool = record.TypeBool
)

// Value constructors.
var (
	// Int builds an INT value.
	Int = record.Int
	// Float builds a FLOAT value.
	Float = record.Float
	// Text builds a TEXT value.
	Text = record.Text
	// Bool builds a BOOL value.
	Bool = record.Bool
	// Null builds a NULL of the given type.
	Null = record.Null
)

// Client-protocol types for authenticated sessions (paper §5.1).
type (
	// Request is an authenticated client query.
	Request = portal.Request
	// Response is a sequenced, MACed query response.
	Response = portal.Response
	// Client is the user-side verifier (request signing, response MAC
	// checks, rollback detection, attestation pinning).
	Client = client.Client
	// Quote is a simulated SGX attestation quote.
	Quote = enclave.Quote
)

// NewClient builds a client holding the pre-exchanged MAC key.
var NewClient = client.New

// Sentinel errors surfaced through the client protocol.
var (
	// ErrRollback means a response reused a sequence number: the server
	// rolled the database back to an earlier state (§5.1).
	ErrRollback = client.ErrRollback
	// ErrBadMAC means a response failed its MAC check.
	ErrBadMAC = client.ErrBadMAC
	// ErrUnauthorized means the portal rejected a request's authorisation.
	ErrUnauthorized = portal.ErrUnauthorized
	// ErrQuarantined (client side) means the server returned an
	// authenticated "integrity compromised" response: its verifier raised
	// a tamper alarm and it refuses to endorse further results.
	ErrQuarantined = client.ErrQuarantined
	// ErrServerQuarantined (server side) fences every statement once the
	// instance's own verifier has raised its sticky alarm.
	ErrServerQuarantined = core.ErrQuarantined
)

// Health is a point-in-time snapshot of an instance's integrity state
// (quarantine flag, sticky alarm text, per-partition verification epochs,
// verifier liveness, counters).
type Health = core.Health

// PlanCacheStats counts prepared-plan cache traffic (hits, misses,
// invalidations, live entries).
type PlanCacheStats = plan.CacheStats

// GovernStats snapshots the overload-protection state: memory-budget
// usage, admission/shed counters, expired sessions, live snapshot pins
// and the portal's replay windows.
type GovernStats = core.GovernStats

// Overload-protection errors crossing the public API.
var (
	// ErrOverloaded means admission control shed the statement; the typed
	// error carries a RetryAfter hint and the retrying client backs off.
	ErrOverloaded = govern.ErrOverloaded
	// ErrResourceExhausted means the statement would exceed MemBudget.
	ErrResourceExhausted = govern.ErrResourceExhausted
	// ErrSessionExpired means the idle reaper released this session's
	// pinned snapshot (SessionMaxIdle); BEGIN SNAPSHOT again.
	ErrSessionExpired = core.ErrSessionExpired
)

// Config tunes a database instance: what a deployment sets. The zero value
// is a verifying, single-RSWS VeriDB with the paper's recommended
// optimisations on. The paper's ablations (Baseline mode, RSWS including
// metadata, full scans, eager compaction, forced join plans, ECall cost,
// EPC size) are axes of the figure harness, which sets them on
// core.Config directly.
type Config struct {
	// RSWSPartitions is the number of ReadSet/WriteSet pairs with
	// independent locks (§4.3). Zero means 1.
	RSWSPartitions int
	// VerifyEveryOps starts the background verifier scanning one page per
	// this many operations (Fig. 10's knob). Zero: verify manually.
	VerifyEveryOps int
	// TableShards is the number of hash shards per table, each with its
	// own latch, key chains and pages; scans stitch the shards back
	// together in key order. Zero or 1 keeps the single-shard layout
	// (bit-identical to pre-sharding builds).
	TableShards int
	// Seed makes the enclave PRF key deterministic (tests/benchmarks).
	Seed uint64
	// DataDir enables authenticated durable storage: every mutating
	// statement is appended to a MACed, sequence-chained write-ahead log
	// in this directory (fsynced before the statement is acked),
	// checkpoints freeze the verified tables into immutable segment files
	// with a MACed manifest — automatically once the log since the last
	// one outgrows max(64 MiB, the checkpoint image), so recovery replays
	// at most one image-sized log — and Open recovers the image through
	// the protected write interfaces behind a full verification gate —
	// tampered durable state opens quarantined. Empty (the default) keeps
	// the database purely in memory, bit-identical to prior behavior.
	DataDir string
	// StatementTimeout bounds each statement's wall-clock execution. The
	// deadline is threaded as a context through the planner, engine
	// operators and storage scans; at expiry the statement fails with
	// context.DeadlineExceeded and releases its latches and snapshot pins.
	// Zero disables the server-side deadline (per-request
	// deadlines on the wire still apply; the sooner of the two wins).
	StatementTimeout time.Duration
	// MemBudget caps the estimated bytes of statement materialisations
	// (sorts, hash tables, aggregates, drained results), MVCC version
	// chains and the portal's replay windows (at most 16 MiB per
	// provisioned client), process-wide. A statement whose
	// materialisations would exceed it fails fast with a typed
	// resource-exhausted error; nothing spills to verified storage (the
	// paper's §5.4 sketch is not implemented). Zero tracks usage without
	// refusing.
	MemBudget int64
	// MaxConcurrentStatements caps statements executing in the kernel at
	// once. A statement that finds every slot taken is shed at once with a
	// typed overloaded error carrying a RetryAfter hint; the retrying
	// client honors the hint with jittered backoff. Zero disables
	// admission control.
	MaxConcurrentStatements int
	// SessionMaxIdle expires a client session's pinned snapshot (BEGIN
	// SNAPSHOT) after this much statement inactivity, so a vanished client
	// cannot hold version reclamation hostage. The expired
	// session's next statement fails once with a session-expired error;
	// the client re-pins with a fresh BEGIN SNAPSHOT. Zero never expires.
	SessionMaxIdle time.Duration
}

// planCacheShapes bounds the prepared-plan LRU, counted in statement
// shapes: compiled statements are reused by SQL text with the literals
// lifted out, so a repeated shape skips the parser and planner whatever
// its literals.
const planCacheShapes = 128

// validate rejects configurations that would otherwise surface as opaque
// failures deep inside the memory or storage layers.
func (c Config) validate() error {
	if c.RSWSPartitions < 0 {
		return fmt.Errorf("veridb: RSWSPartitions is %d; want 0 (default) or a positive partition count", c.RSWSPartitions)
	}
	if c.TableShards < 0 {
		return fmt.Errorf("veridb: TableShards is %d; want 0 (unsharded) or a positive shard count", c.TableShards)
	}
	if c.VerifyEveryOps < 0 {
		return fmt.Errorf("veridb: VerifyEveryOps is %d; want 0 (manual verification) or a positive op interval", c.VerifyEveryOps)
	}
	if c.StatementTimeout < 0 {
		return fmt.Errorf("veridb: StatementTimeout is %v; want 0 (no server-side deadline) or a positive duration", c.StatementTimeout)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("veridb: MemBudget is %d; want 0 (track without refusing) or a positive byte cap", c.MemBudget)
	}
	if c.MaxConcurrentStatements < 0 {
		return fmt.Errorf("veridb: MaxConcurrentStatements is %d; want 0 (no admission control) or a positive slot count", c.MaxConcurrentStatements)
	}
	if c.SessionMaxIdle < 0 {
		return fmt.Errorf("veridb: SessionMaxIdle is %v; want 0 (sessions never expire) or a positive idle bound", c.SessionMaxIdle)
	}
	return nil
}

func (c Config) coreConfig() (core.Config, error) {
	if err := c.validate(); err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Memory:         vmem.Config{Partitions: c.RSWSPartitions},
		VerifyEveryOps: c.VerifyEveryOps,
		TableShards:    c.TableShards,
		Seed:           c.Seed,
		DataDir:        c.DataDir,
		PlanCacheSize:  planCacheShapes,

		StatementTimeout:        c.StatementTimeout,
		MemBudget:               c.MemBudget,
		MaxConcurrentStatements: c.MaxConcurrentStatements,
		SessionMaxIdle:          c.SessionMaxIdle,
	}, nil
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns (queries only). Results of one
	// cached statement shape may share the slice: read it, do not write
	// it.
	Columns []string
	// Rows holds the result rows (queries only).
	Rows []Row
	// Affected counts modified rows (DML only).
	Affected int
}

// Stats snapshots the verification machinery's counters.
type Stats struct {
	// Ops counts protected storage operations.
	Ops uint64
	// PRFEvals counts keyed-PRF evaluations (the dominant verification
	// cost, §6.1).
	PRFEvals uint64
	// PagesAlive counts registered pages.
	PagesAlive uint64
	// Scans counts full page verification scans.
	Scans uint64
	// FastScans counts untouched pages carried forward without hashing.
	FastScans uint64
	// Rotations counts completed verification epochs.
	Rotations uint64
	// Alarms counts raised tamper alarms.
	Alarms uint64
	// ECalls counts simulated enclave boundary crossings.
	ECalls int64
	// EPCUsed is the simulated enclave memory in use, bytes.
	EPCUsed int64
}

// DB is a VeriDB instance.
type DB struct {
	inner *core.DB
}

// Open creates a database.
func Open(cfg Config) (*DB, error) {
	cc, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	inner, err := core.Open(cc)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// Close stops background verification.
func (db *DB) Close() { db.inner.Close() }

// Exec parses and executes one SQL statement (DDL, DML or query).
func (db *DB) Exec(query string) (*Result, error) {
	res, err := db.inner.Execute(query)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}, nil
}

// Explain returns the physical plan chosen for a SELECT.
func (db *DB) Explain(query string) (string, error) { return db.inner.Explain(query) }

// PlanCache snapshots the prepared-plan cache counters.
func (db *DB) PlanCache() PlanCacheStats { return db.inner.PlanCacheStats() }

// Govern snapshots the overload-protection counters (memory budget,
// admission gate, expired sessions, snapshot pins, replay windows).
func (db *DB) Govern() GovernStats { return db.inner.GovernStats() }

// ExecTimeout is Exec with a per-statement deadline: the statement is
// cancelled (resources released) when the timeout elapses, failing with
// context.DeadlineExceeded. A configured StatementTimeout still applies;
// the sooner deadline wins.
func (db *DB) ExecTimeout(query string, timeout time.Duration) (*Result, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := db.inner.ExecuteContext(ctx, "", query)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}, nil
}

// Checkpoint (durable instances only) freezes the verified tables into
// immutable on-disk segment files with a MACed manifest and rotates the
// write-ahead log. Recovery from the new checkpoint replays only the WAL
// records appended after it.
func (db *DB) Checkpoint() error { return db.inner.Checkpoint() }

// WALNextSeq returns the next write-ahead-log sequence number (0 for
// in-memory instances). Diagnostic: sequence numbers never reset across
// checkpoints, so this counts logged statements over the database's life.
func (db *DB) WALNextSeq() uint64 { return db.inner.WALNextSeq() }

// Verify runs a full verification pass over every RSWS partition and
// returns the tamper alarm, if any (deferred verification, §4.1).
func (db *DB) Verify() error { return db.inner.Memory().VerifyAll() }

// Alarm returns the sticky tamper alarm raised by any earlier
// verification, or nil.
func (db *DB) Alarm() error { return db.inner.Memory().Alarm() }

// Health snapshots the instance's integrity state. Polling it also drives
// quarantine entry on an otherwise idle instance: the first call that
// observes a tamper alarm fences the database and stops its verifier.
func (db *DB) Health() Health { return db.inner.Health() }

// QuarantineError returns the sticky quarantine error (wrapping
// ErrServerQuarantined) once the verifier's alarm has tripped, or nil
// while the instance is healthy.
func (db *DB) QuarantineError() error { return db.inner.QuarantineError() }

// StartVerifier launches non-quiescent background verification: one
// goroutine that scans one page per opsPerPageScan protected operations.
// It returns an error if a verifier is already running.
func (db *DB) StartVerifier(opsPerPageScan int) error {
	return db.inner.Memory().StartVerifier(opsPerPageScan)
}

// StopVerifier stops background verification once the page scan in
// progress is done. A pass left in flight is resumed by the next
// StartVerifier and completed by Verify.
func (db *DB) StopVerifier() { db.inner.Memory().StopVerifier() }

// Stats returns verification and enclave counters.
func (db *DB) Stats() Stats {
	m := db.inner.Memory().Stats()
	e := db.inner.Enclave().Stats()
	return Stats{
		Ops: m.Ops, PRFEvals: m.PRFEvals, PagesAlive: m.PagesAlive,
		Scans: m.Scans, FastScans: m.FastScans, Rotations: m.Rotations,
		Alarms: m.Alarms, ECalls: e.ECalls, EPCUsed: e.EPCUsed,
	}
}

// Measurement returns the enclave identity hash clients attest against.
func (db *DB) Measurement() [32]byte { return db.inner.Enclave().Measurement() }

// Attest produces an attestation quote over the client's nonce.
func (db *DB) Attest(nonce []byte) Quote { return db.inner.Enclave().Attest(nonce) }

// ProvisionClient installs a pre-exchanged MAC key for a client id.
func (db *DB) ProvisionClient(id string, key []byte) {
	db.inner.Enclave().ProvisionMACKey(id, key)
}

// Serve executes an authenticated request through the query portal
// (authorisation, sequencing, response MAC — §5.1).
func (db *DB) Serve(req Request) (*Response, error) {
	return db.inner.Portal().Serve(req)
}

// RecoverFrom rebuilds this (fresh) database from a replica by replaying
// its contents through the protected write interfaces, then resumes the
// sequence counter above seqFloor (the client's highest seen number).
func (db *DB) RecoverFrom(replica *DB, seqFloor uint64) error {
	return db.inner.Recover(replica.inner, seqFloor)
}

// TableNames lists the database's tables.
func (db *DB) TableNames() []string { return db.inner.TableNames() }

// RowCount returns the number of rows in a table.
func (db *DB) RowCount(table string) (int, error) {
	t, err := db.inner.Store().Table(table)
	if err != nil {
		return 0, err
	}
	return t.RowCount(), nil
}

// InjectTamper simulates the §3.1 adversary: it flips bytes of one record
// stored in one of the table's pages directly in untrusted memory,
// bypassing every protected interface. Verification must subsequently
// raise an alarm. Demo/test use only.
func (db *DB) InjectTamper(table string) error {
	pages, err := db.inner.Store().PageIDs(table)
	if err != nil {
		return err
	}
	mem := db.inner.Memory()
	for _, pid := range pages {
		// Pick a victim record first; Slots holds the page lock, so the
		// actual tampering happens after it returns.
		victim := -1
		var corrupted []byte
		err := mem.Slots(pid, func(slot int, rec []byte) bool {
			if len(rec) < 4 {
				return true
			}
			victim = slot
			corrupted = append([]byte(nil), rec...)
			for i := len(corrupted) - 4; i < len(corrupted); i++ {
				corrupted[i] ^= 0xFF
			}
			return false
		})
		if err != nil || victim < 0 {
			continue
		}
		if mem.TamperRecord(pid, victim, corrupted) == nil {
			// Make sure the tampered page is covered by the next scan even
			// under touched-page tracking.
			_, _ = mem.Get(pid, victim)
			return nil
		}
	}
	return fmt.Errorf("veridb: table %q has no record to tamper", table)
}

// ParseOnly checks a statement's syntax without executing it.
func ParseOnly(query string) error {
	_, err := sql.Parse(query)
	return err
}
