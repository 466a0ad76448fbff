// Package core is the VeriDB kernel: it wires the simulated enclave, the
// write-read consistent memory, the verifiable storage, the query compiler
// and the execution engine into one database instance, and executes parsed
// SQL statements against it. The public veridb package wraps this.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veridb/internal/enclave"
	"veridb/internal/engine"
	"veridb/internal/govern"
	"veridb/internal/plan"
	"veridb/internal/portal"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/storage"
	"veridb/internal/vmem"
)

// Config assembles a database instance.
type Config struct {
	// Enclave configures the simulated SGX hardware.
	Enclave enclave.Config
	// Memory configures the write-read consistent memory (§4.1, §4.3).
	Memory vmem.Config
	// Join selects the default join strategy (§6.3 compares plans).
	Join plan.JoinStrategy
	// VerifyEveryOps starts the background verifier scanning one page per
	// this many operations (Fig. 10's x). Zero leaves verification manual.
	VerifyEveryOps int
	// TableShards is the hash-shard count for tables created through SQL
	// (each shard has its own latch, chains and pages). Zero or one keeps
	// the unsharded layout bit-for-bit.
	TableShards int
	// ExecBatchSize is the row capacity of the batches a statement moves
	// through the operator tree. It only sizes buffers: every value runs
	// the same operators and returns the same rows, 1 included (one row
	// per batch). Zero means storage.DefaultBatchCapacity.
	ExecBatchSize int
	// Seed, when nonzero, makes the enclave's PRF key deterministic
	// (benchmarks and tests only).
	Seed uint64
	// DataDir enables authenticated durable storage: every mutating
	// statement is appended to a MACed, sequence-chained WAL in this
	// directory before its result is acked, and Open recovers the image
	// (checkpoint segments + WAL tail) through the protected write
	// interfaces behind the VerifyAll gate. Empty keeps the database
	// purely in memory.
	DataDir string
	// PlanCacheSize bounds the LRU cache of compiled statements in
	// statement shapes — text with its literals lifted out (a repeated
	// shape skips the parser and planner whatever its literals). Zero
	// disables the cache; the public veridb package opens with 128.
	PlanCacheSize int
	// StatementTimeout bounds each statement's wall-clock execution: the
	// context threaded through the engine is cancelled at the deadline and
	// the statement fails with context.DeadlineExceeded, releasing its
	// scans, latches and snapshot pins on the way out.
	// Zero disables the server-side deadline (per-request deadlines on the
	// wire still apply).
	StatementTimeout time.Duration
	// MemBudget caps the estimated bytes of statement materialisations,
	// MVCC version chains and the portal response cache, process-wide.
	// Statements that would exceed it fail fast with a typed
	// govern.ErrResourceExhausted; under sustained pressure spill-eligible
	// operators degrade to smaller batches first. Zero tracks usage
	// without refusing.
	MemBudget int64
	// MaxConcurrentStatements caps statements executing inside the kernel
	// at once; excess statements wait in a bounded admission queue and are
	// shed with a typed govern.ErrOverloaded (carrying a RetryAfter hint)
	// once the queue is full or AdmissionMaxWait elapses. Zero disables
	// admission control.
	MaxConcurrentStatements int
	// AdmissionQueueDepth bounds how many statements may wait for an
	// execution slot before new arrivals are shed immediately. Meaningful
	// only with MaxConcurrentStatements > 0.
	AdmissionQueueDepth int
	// AdmissionMaxWait bounds how long a queued statement waits for a slot
	// before being shed. Zero maps to a 50ms default. Meaningful only with
	// MaxConcurrentStatements > 0.
	AdmissionMaxWait time.Duration
	// SessionMaxIdle expires a client session's pinned snapshot (BEGIN
	// SNAPSHOT) after this much statement inactivity, unblocking version
	// reclamation when a client vanishes mid-session. The expired session's next
	// statement fails once with ErrSessionExpired. Zero never expires.
	SessionMaxIdle time.Duration
}

// ErrQuarantined wraps every request rejected because the database's
// verifier raised a sticky tamper alarm: the state machine is fenced and
// only failover (Supervisor) or a fresh Recover can restore service.
var ErrQuarantined = errors.New("core: database quarantined after tamper alarm")

// ErrSessionExpired is returned once, on the first statement a client
// issues after the session reaper released its pinned snapshot for idling
// past SessionMaxIdle. The client re-pins with a fresh BEGIN SNAPSHOT.
var ErrSessionExpired = errors.New("core: session snapshot expired after idling past SessionMaxIdle; BEGIN SNAPSHOT again")

// DB is one VeriDB instance.
type DB struct {
	enc    *enclave.Enclave
	mem    *vmem.Memory
	store  *storage.Store
	portal *portal.Portal
	opts   plan.Options
	// batchCap is the batch capacity statements execute at (see
	// Config.ExecBatchSize).
	batchCap int
	dur      *durable // nil in memory-only mode

	// planCache holds compiled statements keyed on their shape; nil when
	// PlanCacheSize disables caching.
	planCache *plan.Cache

	qmu  sync.Mutex
	qerr error // sticky quarantine error, set on first alarm observation

	// sessions tracks per-client snapshot state (BEGIN SNAPSHOT/COMMIT).
	// The portal routes each request through ExecuteSession with the
	// authenticated client ID; library calls share the "" session.
	sessMu   sync.Mutex
	sessions map[string]*session

	// Overload protection (see internal/govern): the process memory
	// budget, the bounded admission gate, and the statement deadline.
	budget      *govern.Budget
	admit       *govern.Admission
	stmtTimeout time.Duration

	// Session idle reaper (SessionMaxIdle): expires abandoned snapshot
	// pins so version reclamation is never held hostage by a vanished client.
	sessionMaxIdle time.Duration
	reaperStop     chan struct{}
	reaperWG       sync.WaitGroup
	sessExpired    atomic.Int64
}

// session is one client's statement context: its prepared statements and
// at most a pinned read snapshot. While pinned, every SELECT reads the
// pinned committed state and mutating statements are rejected (the session
// is read-only).
type session struct {
	mu sync.Mutex
	// prepared is the client's PREPARE registry: statement templates by
	// name. Never logged to the WAL — clients re-prepare after a restart.
	prepared map[string]*sql.Prepare
	snap     *storage.Snapshot
	// lastUse is the last statement touch; the reaper expires pinned
	// sessions idle past SessionMaxIdle.
	lastUse time.Time
	// expired marks a reaped session; its next statement fails once with
	// ErrSessionExpired so the client learns its pin is gone.
	expired bool
}

// pinned returns the session's snapshot, or nil.
func (s *session) pinned() *storage.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Open builds a database.
func Open(cfg Config) (*DB, error) {
	enc, err := enclave.NewSeeded(cfg.Enclave, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mem, err := vmem.New(enc, cfg.Memory)
	if err != nil {
		return nil, err
	}
	st := storage.NewStore(mem)
	if cfg.TableShards > 0 {
		st.SetDefaultShards(cfg.TableShards)
	}
	if cfg.ExecBatchSize <= 0 {
		cfg.ExecBatchSize = storage.DefaultBatchCapacity
	}
	db := &DB{
		enc:            enc,
		mem:            mem,
		store:          st,
		opts:           plan.Options{Join: cfg.Join},
		batchCap:       cfg.ExecBatchSize,
		planCache:      plan.NewCache(cfg.PlanCacheSize),
		sessions:       make(map[string]*session),
		budget:         govern.NewBudget(cfg.MemBudget),
		admit:          govern.NewAdmission(cfg.MaxConcurrentStatements, cfg.AdmissionQueueDepth, cfg.AdmissionMaxWait),
		stmtTimeout:    cfg.StatementTimeout,
		sessionMaxIdle: cfg.SessionMaxIdle,
	}
	st.SetBudget(db.budget)
	db.portal = portal.New(enc, db)
	db.portal.SetBudget(db.budget)
	// Recovery runs before the background verifier starts: WAL replay
	// drives the protected interfaces at full speed and must not race the
	// background verifier, and the recovered image is admitted through an
	// explicit VerifyAll gate inside openDurable instead.
	if cfg.DataDir != "" {
		if err := db.openDurable(cfg); err != nil {
			return nil, err
		}
	}
	// A recovery that found tamper leaves the instance quarantined; the
	// background verifier stays down (QuarantineError would stop it on its
	// first observation anyway — starting it would only leak work and
	// windows).
	if cfg.VerifyEveryOps > 0 && db.mem.Alarm() == nil {
		if err := mem.StartVerifier(cfg.VerifyEveryOps); err != nil {
			return nil, fmt.Errorf("core: starting background verifier: %w", err)
		}
	}
	if cfg.SessionMaxIdle > 0 {
		db.startSessionReaper(cfg.SessionMaxIdle)
	}
	return db, nil
}

// Enclave exposes the simulated enclave (attestation, key provisioning).
func (db *DB) Enclave() *enclave.Enclave { return db.enc }

// Memory exposes the write-read consistent memory (verification control).
func (db *DB) Memory() *vmem.Memory { return db.mem }

// Store exposes the verifiable storage (library-level access).
func (db *DB) Store() *storage.Store { return db.store }

// Portal exposes the query portal for authenticated client sessions.
func (db *DB) Portal() *portal.Portal { return db.portal }

// Close stops background verification and releases the WAL append
// handle. It is idempotent and safe to call concurrently with quarantine
// entry. Every acked statement is already fsynced, so Close never has
// dirty durable state to lose.
func (db *DB) Close() {
	db.mem.StopVerifier()
	db.stopSessionReaper()
	if db.dur != nil {
		db.dur.log.Close()
	}
}

// startSessionReaper launches the idle-session collector: every quarter of
// maxIdle it releases pinned snapshots whose session has not issued a
// statement within maxIdle, so an abandoned BEGIN SNAPSHOT stops pinning
// the version reclamation floor.
func (db *DB) startSessionReaper(maxIdle time.Duration) {
	stop := make(chan struct{})
	db.reaperStop = stop
	interval := maxIdle / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	db.reaperWG.Add(1)
	go func() {
		defer db.reaperWG.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				db.reapIdleSessions(maxIdle)
			}
		}
	}()
}

func (db *DB) stopSessionReaper() {
	if db.reaperStop != nil {
		close(db.reaperStop)
		db.reaperWG.Wait()
		db.reaperStop = nil
	}
}

// reapIdleSessions closes the pinned snapshot of every session idle past
// maxIdle and marks it expired. A statement in flight refreshed its
// session's lastUse on entry, so only sessions with no recent statement
// activity qualify. Returns how many pins it released.
func (db *DB) reapIdleSessions(maxIdle time.Duration) int {
	db.sessMu.Lock()
	sessions := make([]*session, 0, len(db.sessions))
	for _, s := range db.sessions {
		sessions = append(sessions, s)
	}
	db.sessMu.Unlock()
	cutoff := time.Now().Add(-maxIdle)
	n := 0
	for _, s := range sessions {
		s.mu.Lock()
		if s.snap != nil && s.lastUse.Before(cutoff) {
			s.snap.Close()
			s.snap = nil
			s.expired = true
			n++
		}
		s.mu.Unlock()
	}
	if n > 0 {
		db.sessExpired.Add(int64(n))
	}
	return n
}

// touchSession records statement activity on the session and surfaces a
// pending expiry notice exactly once.
func (db *DB) touchSession(sess *session) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.lastUse = time.Now()
	if sess.expired {
		sess.expired = false
		return ErrSessionExpired
	}
	return nil
}

// QuarantineError returns the sticky quarantine error, entering the
// quarantined state on the first call that observes a tamper alarm. A
// quarantined DB fences every statement (the compromised state must never
// be endorsed) and stops its background verifier — further scanning of
// memory already known to be compromised is wasted work, and the alarm can
// never clear. Half of portal.Executor.
func (db *DB) QuarantineError() error {
	db.qmu.Lock()
	if db.qerr != nil {
		err := db.qerr
		db.qmu.Unlock()
		return err
	}
	alarm := db.mem.Alarm()
	if alarm == nil {
		db.qmu.Unlock()
		return nil
	}
	db.qerr = fmt.Errorf("%w: %v", ErrQuarantined, alarm)
	err := db.qerr
	db.qmu.Unlock()
	// Outside qmu: StopVerifier waits for the pass in flight, and is
	// idempotent against a concurrent Close.
	db.mem.StopVerifier()
	return err
}

// Health is a point-in-time snapshot of the instance's integrity state:
// what a supervisor polls to decide on failover, and what an operator
// reads to understand an outage.
type Health struct {
	// Quarantined reports whether the DB has fenced itself after an alarm.
	Quarantined bool
	// Alarm is the sticky tamper alarm's text ("" while clean).
	Alarm string
	// Epochs is every RSWS partition's current verification epoch;
	// advancing epochs are evidence the verifier is making progress.
	Epochs []uint64
	// VerifierRunning reports whether the background verifier is
	// attached (quarantine and Close both stop it).
	VerifierRunning bool
	// Stats snapshots the memory's operation and verification counters.
	Stats vmem.Stats
	// WALError is the failed WAL append or fsync that fenced writes ("" while
	// the log is healthy). It is sticky: every later write is refused with
	// ErrWALBroken until the instance is replaced.
	WALError string
	// CheckpointError is the most recent automatic checkpoint's failure,
	// cleared by the next checkpoint that succeeds. While it is set the WAL,
	// and with it recovery time, keeps growing; statements are still acked
	// and durable.
	CheckpointError string
}

// Health snapshots the instance's integrity state. Like Execute, it
// observes new alarms, so polling Health is enough to drive quarantine
// entry even on an otherwise idle instance.
func (db *DB) Health() Health {
	qerr := db.QuarantineError()
	h := Health{
		Quarantined:     qerr != nil,
		Epochs:          db.mem.Epochs(),
		VerifierRunning: db.mem.VerifierRunning(),
		Stats:           db.mem.Stats(),
	}
	if alarm := db.mem.Alarm(); alarm != nil {
		h.Alarm = alarm.Error()
	}
	if d := db.dur; d != nil {
		if err := d.broken.Load(); err != nil {
			h.WALError = (*err).Error()
		}
		if err := d.ckptErr.Load(); err != nil {
			h.CheckpointError = (*err).Error()
		}
	}
	return h
}

// Execute parses and runs one SQL statement; authenticated requests take
// the same path through ExecuteContext (portal.Executor). With durable
// storage enabled, mutating statements go through the append-before-ack
// path: applied, then logged and fsynced, and only then acked. With the
// plan cache enabled, a repeated statement shape skips the parser (and,
// for SELECT, the planner) entirely.
func (db *DB) Execute(query string) (*portal.Result, error) {
	return db.ExecuteContext(context.Background(), "", query)
}

// ExecuteSession is Execute with a client identity: BEGIN SNAPSHOT and
// COMMIT act on (and SELECTs read through) the named client's session.
// The portal passes each request's authenticated client ID; plain Execute
// shares the anonymous "" session.
func (db *DB) ExecuteSession(clientID, query string) (*portal.Result, error) {
	return db.ExecuteContext(context.Background(), clientID, query)
}

// ExecuteContext is ExecuteSession under the caller's context: the
// statement is cancelled when ctx ends (and, with StatementTimeout set,
// when the server-side deadline elapses — whichever comes first), with
// every resource it held released through the operator Close chain. All
// statements pass the admission gate first; once the server is past
// MaxConcurrentStatements with a full queue, new statements are refused
// with a typed govern.ErrOverloaded. Integrity fences are checked before
// and after admission so quarantine is never masked as overload.
func (db *DB) ExecuteContext(ctx context.Context, clientID, query string) (*portal.Result, error) {
	// Fence first: a quarantined instance refuses with the quarantine
	// error no matter how loaded it is.
	if err := db.QuarantineError(); err != nil {
		return nil, err
	}
	if db.stmtTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, db.stmtTimeout)
		defer cancel()
	}
	release, err := db.admit.Acquire(ctx)
	if err != nil {
		// A quarantine raised while this statement waited takes precedence
		// over the shed: the client must learn the instance is fenced.
		if qerr := db.QuarantineError(); qerr != nil {
			return nil, qerr
		}
		return nil, err
	}
	defer release()
	return db.executeAdmitted(ctx, clientID, query)
}

// executeAdmitted runs one statement that already holds an admission slot.
// What it pays before the statement's own work is one lexer pass: the
// shape key the plan cache is looked up under, and the literals a cached
// instance is rebound to. Parse, plan and compile run on a miss only.
func (db *DB) executeAdmitted(ctx context.Context, clientID, query string) (*portal.Result, error) {
	sess := db.sessionFor(clientID)
	if err := db.touchSession(sess); err != nil {
		return nil, err
	}
	// Text that does not lex goes to Parse, which reports it.
	key, lits, err := sql.Shape(query)
	cached := err == nil && cachedKind(key)
	// Read the version before planning: a DDL between here and Put files
	// the instance under a stale version, which the next Get discards.
	version := db.store.CatalogVersion()
	var in *plan.Instance
	if cached {
		in = db.planCache.Get(key, version)
		if in != nil && !(sess.stillPrepared(in) && in.Bind(lits)) {
			db.planCache.Discard()
			in = nil
		}
	}
	if in == nil {
		stmt, slots, err := sql.ParseSlots(query)
		if err != nil {
			return nil, err
		}
		if in, err = db.compile(sess, stmt, slots); err != nil {
			return nil, err
		}
		// Every lifted literal must have its slot, or a hit could not
		// rebind the instance in full.
		in.Rebindable = in.Rebindable && len(slots) == len(lits)
	}
	res, err := db.run(ctx, sess, query, in)
	if cached {
		db.planCache.Put(key, version, in)
	}
	return res, err
}

// sessionFor returns (creating on first use) the session for a client ID.
func (db *DB) sessionFor(clientID string) *session {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	s, ok := db.sessions[clientID]
	if !ok {
		s = &session{prepared: make(map[string]*sql.Prepare)}
		db.sessions[clientID] = s
	}
	return s
}

// cachedKind reports whether a shape key is of a statement kind the plan
// cache holds: the repeated-shape statements (queries, DML and EXECUTE).
// DDL and the rest of the prepared-statement and snapshot control flow
// always compile fresh.
func cachedKind(key string) bool {
	switch kw, _, _ := strings.Cut(key, " "); kw {
	case "SELECT", "INSERT", "UPDATE", "DELETE", "EXECUTE":
		return true
	}
	return false
}

// compile builds the instance a parsed statement runs as: an EXECUTE is
// bound to its template in the session's registry, a SELECT (EXECUTEd or
// plain) is planned, anything else runs from its AST.
func (db *DB) compile(sess *session, stmt sql.Statement, slots []*sql.Literal) (*plan.Instance, error) {
	in := &plan.Instance{Stmt: stmt, Slots: slots, Rebindable: true}
	if ex, ok := stmt.(*sql.ExecutePrepared); ok {
		if err := sess.bindPrepared(in, ex); err != nil {
			return nil, err
		}
	}
	if sel, ok := in.Stmt.(*sql.Select); ok {
		op, err := plan.PlanSelect(db.store, sel, db.opts)
		if err != nil {
			return nil, err
		}
		in.Op, in.Rebindable = op, plan.Rebindable(sel)
	}
	return in, nil
}

// run executes an instance, fresh or checked out of the cache and rebound:
// a SELECT through its compiled plan, durable DML and DDL through the WAL,
// everything else through executeStmtSess.
func (db *DB) run(ctx context.Context, sess *session, query string, in *plan.Instance) (*portal.Result, error) {
	if in.Op != nil {
		if err := db.QuarantineError(); err != nil {
			return nil, err
		}
		return db.runSelectOp(ctx, sess, in.Op)
	}
	if db.dur != nil && isMutating(in.Stmt) {
		if in.Prepared != nil {
			// An EXECUTEd write is logged as the bound statement's text,
			// rendered from the literals it runs with, so replay does not
			// depend on the registry.
			var err error
			if query, err = sql.Render(in.Stmt); err != nil {
				return nil, err
			}
		}
		return db.executeDurable(ctx, sess, query, in.Stmt)
	}
	return db.executeStmtSess(ctx, sess, in.Stmt)
}

// bindPrepared resolves an EXECUTE against the session's registry and
// makes in the template's instance: the arguments compiled (constant
// expressions over the EXECUTE's own literals), evaluated, and substituted
// into a clone of the template through literal nodes that in.Bind rewrites
// on a later hit.
func (s *session) bindPrepared(in *plan.Instance, ex *sql.ExecutePrepared) error {
	s.mu.Lock()
	prep, ok := s.prepared[ex.Name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no prepared statement %q", ex.Name)
	}
	if len(ex.Args) != prep.NumParams {
		return fmt.Errorf("core: prepared statement %q wants %d arguments, got %d", ex.Name, prep.NumParams, len(ex.Args))
	}
	args := make([]*engine.Compiled, len(ex.Args))
	vals := make([]record.Value, len(ex.Args))
	for i, e := range ex.Args {
		var err error
		if args[i], err = engine.Compile(e, engine.Schema{}); err == nil {
			vals[i], err = args[i].Eval(nil)
		}
		if err != nil {
			return fmt.Errorf("core: EXECUTE argument %d: %w", i+1, err)
		}
	}
	bound, params, err := sql.BindParams(prep.Stmt, vals)
	if err != nil {
		return err
	}
	in.Stmt, in.Args, in.Params, in.Prepared = bound, args, params, prep
	return nil
}

// stillPrepared reports whether an EXECUTE instance's template is the one
// this session has registered under its name — the plan cache is shared by
// every client, so an instance another client bound is not; any other
// instance always is.
func (s *session) stillPrepared(in *plan.Instance) bool {
	if in.Prepared == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prepared[in.Prepared.Name] == in.Prepared
}

// PlanCacheStats snapshots the plan cache counters (zero when caching is
// disabled).
func (db *DB) PlanCacheStats() plan.CacheStats { return db.planCache.Stats() }

// GovernStats is a point-in-time snapshot of the overload-protection
// state: budget usage, admission counters, reaped sessions and live
// snapshot pins. The overload bench asserts its post-drain values.
type GovernStats struct {
	// MemUsed / MemLimit / MemHighWater / MemDenied mirror the budget.
	MemUsed      int64
	MemLimit     int64
	MemHighWater int64
	MemDenied    int64
	// Admission snapshots the shed/queue counters.
	Admission govern.AdmissionStats
	// SessionsExpired counts pinned sessions the idle reaper released.
	SessionsExpired int64
	// SnapshotPins is the number of snapshot pins currently held.
	SnapshotPins int
	// ResponseCache snapshots the portal response cache.
	ResponseCache portal.CacheStats
}

// GovernStats snapshots the overload-protection counters.
func (db *DB) GovernStats() GovernStats {
	return GovernStats{
		MemUsed:         db.budget.Used(),
		MemLimit:        db.budget.Limit(),
		MemHighWater:    db.budget.HighWater(),
		MemDenied:       db.budget.Denied(),
		Admission:       db.admit.Stats(),
		SessionsExpired: db.sessExpired.Load(),
		SnapshotPins:    db.store.SnapshotPins(),
		ResponseCache:   db.portal.CacheStats(),
	}
}

// Budget exposes the process memory budget (library-level access).
func (db *DB) Budget() *govern.Budget { return db.budget }

// ExecuteStmt runs a parsed statement. Once the verifier's alarm is sticky
// every statement — reads included — is fenced with ErrQuarantined:
// results computed from tampered state must never be endorsed.
// ExecuteStmt applies directly, bypassing the WAL: durable instances
// reach it through Execute (which logs mutations) and through recovery
// replay (which must not re-log); library callers driving ExecuteStmt on
// a durable instance forgo durability for those statements.
func (db *DB) ExecuteStmt(stmt sql.Statement) (*portal.Result, error) {
	return db.executeStmtSess(context.Background(), db.sessionFor(""), stmt)
}

func (db *DB) executeStmtSess(ctx context.Context, sess *session, stmt sql.Statement) (*portal.Result, error) {
	if err := db.QuarantineError(); err != nil {
		return nil, err
	}
	if isMutating(stmt) && sess.pinned() != nil {
		return nil, fmt.Errorf("core: session is read-only while a snapshot is pinned; COMMIT first")
	}
	switch s := stmt.(type) {
	case *sql.BeginSnapshot:
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if sess.snap != nil {
			return nil, fmt.Errorf("core: session already holds a pinned snapshot (BEGIN SNAPSHOT without COMMIT)")
		}
		sess.snap = db.store.OpenSnapshot()
		return &portal.Result{
			Columns: []string{"snapshot_seq"},
			Rows:    []record.Tuple{{record.Int(int64(sess.snap.Seq()))}},
		}, nil
	case *sql.CommitSnapshot:
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if sess.snap == nil {
			return nil, fmt.Errorf("core: COMMIT without a pinned snapshot (BEGIN SNAPSHOT first)")
		}
		sess.snap.Close()
		sess.snap = nil
		return &portal.Result{}, nil
	case *sql.CreateTable:
		return db.createTable(s)
	case *sql.DropTable:
		if err := db.store.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &portal.Result{}, nil
	case *sql.Insert:
		return db.insert(s)
	case *sql.Update:
		return db.update(ctx, s)
	case *sql.Delete:
		return db.delete(ctx, s)
	case *sql.Select:
		return db.query(ctx, sess, s)
	case *sql.Prepare:
		sess.mu.Lock()
		sess.prepared[s.Name] = s
		sess.mu.Unlock()
		return &portal.Result{}, nil
	case *sql.ExecutePrepared:
		var in plan.Instance
		if err := sess.bindPrepared(&in, s); err != nil {
			return nil, err
		}
		return db.executeStmtSess(ctx, sess, in.Stmt)
	case *sql.Deallocate:
		sess.mu.Lock()
		_, ok := sess.prepared[s.Name]
		delete(sess.prepared, s.Name)
		sess.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("core: no prepared statement %q", s.Name)
		}
		return &portal.Result{}, nil
	case *sql.Explain:
		op, err := db.Plan(s.Query)
		if err != nil {
			return nil, err
		}
		res := &portal.Result{Columns: []string{"plan"}}
		for _, line := range strings.Split(strings.TrimRight(plan.Describe(op), "\n"), "\n") {
			res.Rows = append(res.Rows, record.Tuple{record.Text(line)})
		}
		return res, nil
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
}

// Plan compiles a SELECT without running it (EXPLAIN support).
func (db *DB) Plan(sel *sql.Select) (engine.Operator, error) {
	return plan.PlanSelect(db.store, sel, db.opts)
}

func (db *DB) createTable(ct *sql.CreateTable) (*portal.Result, error) {
	if len(ct.Columns) == 0 {
		return nil, fmt.Errorf("core: table %q has no columns", ct.Name)
	}
	cols := make([]record.Column, len(ct.Columns))
	pk := -1
	for i, c := range ct.Columns {
		cols[i] = record.Column{Name: c.Name, Type: c.Type}
		if c.PrimaryKey {
			if pk != -1 {
				return nil, fmt.Errorf("core: table %q declares multiple primary keys", ct.Name)
			}
			pk = i
		}
	}
	if pk == -1 {
		pk = 0 // first column by convention
	}
	schema := record.NewSchema(cols...)
	var chains []int
	for _, idxCol := range ct.Indexes {
		ci := schema.ColIndex(idxCol)
		if ci < 0 {
			return nil, fmt.Errorf("core: INDEX names unknown column %q", idxCol)
		}
		chains = append(chains, ci)
	}
	_, err := db.store.CreateTable(storage.TableSpec{
		Name:         ct.Name,
		Schema:       schema,
		PrimaryKey:   pk,
		ChainColumns: chains,
	})
	if err != nil {
		return nil, err
	}
	return &portal.Result{}, nil
}

// evalConst evaluates an expression with no column references (INSERT
// values, SET right-hand sides without references).
func evalConst(e sql.Expr) (record.Value, error) {
	c, err := engine.Compile(e, engine.Schema{})
	if err != nil {
		return record.Value{}, err
	}
	return c.Eval(nil)
}

func (db *DB) insert(ins *sql.Insert) (*portal.Result, error) {
	t, err := db.store.Table(ins.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	// Column ordering: explicit list or schema order.
	order := make([]int, 0, schema.Len())
	if len(ins.Columns) == 0 {
		for i := 0; i < schema.Len(); i++ {
			order = append(order, i)
		}
	} else {
		for _, name := range ins.Columns {
			ci := schema.ColIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("core: table %q has no column %q", ins.Table, name)
			}
			order = append(order, ci)
		}
	}
	n := 0
	tups := make([]record.Tuple, 0, len(ins.Rows))
	for _, row := range ins.Rows {
		if len(row) != len(order) {
			return nil, fmt.Errorf("core: INSERT row has %d values for %d columns", len(row), len(order))
		}
		tup := make(record.Tuple, schema.Len())
		for i := range tup {
			tup[i] = record.Null(schema.Columns[i].Type)
		}
		for i, e := range row {
			v, err := evalConst(e)
			if err != nil {
				return nil, err
			}
			tup[order[i]] = v
		}
		tups = append(tups, tup)
	}
	// One commit timestamp for the whole statement: snapshots see all of
	// the INSERT's rows or none of them.
	if err := db.withCommit(func(c *storage.Commit) error {
		for _, tup := range tups {
			if err := t.InsertAt(tup, c); err != nil {
				return err
			}
			n++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &portal.Result{Affected: n}, nil
}

// withCommit runs f under a single commit timestamp. Every version f
// installs or retires shares the one sequence number, so a statement's
// effects become visible to snapshots atomically when the commit is done.
func (db *DB) withCommit(f func(c *storage.Commit) error) error {
	c := db.store.BeginCommit()
	defer c.Done()
	return f(c)
}

// matchingRows plans and materialises the rows of one table satisfying
// where (the scan closes before any write begins, so DML never deadlocks
// with its own read phase). The statement controls bound the read phase:
// cancellation unwinds it and the materialised rows charge the budget.
func (db *DB) matchingRows(ex *engine.Exec, t storage.Engine, where sql.Expr) ([]record.Tuple, error) {
	sel := &sql.Select{
		Items: []sql.SelectItem{{Star: true}},
		From:  []sql.TableRef{{Table: t.Name(), Alias: t.Name()}},
		Where: where,
		Limit: -1,
	}
	op, err := plan.PlanSelect(db.store, sel, db.opts)
	if err != nil {
		return nil, err
	}
	engine.SetExec(op, ex)
	return engine.Drain(op, ex)
}

// Budget-pressure degradation: once tracked memory passes this fraction of
// the budget, SELECTs run at the degraded batch capacity before reserving
// more — smaller materialisation steps under pressure, refusal only when
// the budget is actually gone.
const (
	degradePressure   = 0.5
	degradedBatchSize = 16
)

func (db *DB) update(ctx context.Context, up *sql.Update) (*portal.Result, error) {
	t, err := db.store.Table(up.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	scanSchema := make(engine.Schema, schema.Len())
	for i, c := range schema.Columns {
		scanSchema[i] = engine.Col{Table: up.Table, Name: c.Name, Type: c.Type}
	}
	type setter struct {
		col  int
		expr *engine.Compiled
	}
	setters := make([]setter, len(up.Set))
	for i, a := range up.Set {
		ci := schema.ColIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("core: table %q has no column %q", up.Table, a.Column)
		}
		c, err := engine.Compile(a.Value, scanSchema)
		if err != nil {
			return nil, err
		}
		setters[i] = setter{col: ci, expr: c}
	}
	// Cancellation applies to the read phase only: once the write loop
	// starts there is no undo log, so the statement runs to completion to
	// keep its effects atomic under the single commit timestamp.
	res := govern.NewReservation(db.budget)
	defer res.Release()
	rows, err := db.matchingRows(engine.NewExec(ctx, res, db.batchCap), t, up.Where)
	if err != nil {
		return nil, err
	}
	pkCol := t.PrimaryKeyColumn()
	n := 0
	if err := db.withCommit(func(c *storage.Commit) error {
		for _, row := range rows {
			newTup := row.Clone()
			for _, s := range setters {
				v, err := s.expr.Eval(row)
				if err != nil {
					return err
				}
				newTup[s.col] = v
			}
			if err := t.UpdateAt(row[pkCol], newTup, c); err != nil {
				return err
			}
			n++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &portal.Result{Affected: n}, nil
}

func (db *DB) delete(ctx context.Context, del *sql.Delete) (*portal.Result, error) {
	t, err := db.store.Table(del.Table)
	if err != nil {
		return nil, err
	}
	// As in update: cancellation bounds the read phase; the write loop is
	// atomic and runs to completion.
	res := govern.NewReservation(db.budget)
	defer res.Release()
	rows, err := db.matchingRows(engine.NewExec(ctx, res, db.batchCap), t, del.Where)
	if err != nil {
		return nil, err
	}
	pkCol := t.PrimaryKeyColumn()
	n := 0
	if err := db.withCommit(func(c *storage.Commit) error {
		for _, row := range rows {
			if err := t.DeleteAt(row[pkCol], c); err != nil {
				return err
			}
			n++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &portal.Result{Affected: n}, nil
}

func (db *DB) query(ctx context.Context, sess *session, sel *sql.Select) (*portal.Result, error) {
	op, err := plan.PlanSelect(db.store, sel, db.opts)
	if err != nil {
		return nil, err
	}
	return db.runSelectOp(ctx, sess, op)
}

// runSelectOp drains a compiled plan into a result. Every base-table scan
// in the plan reads one snapshot: the session's pinned one (BEGIN
// SNAPSHOT) when present, otherwise a statement snapshot opened at the
// current commit watermark and released when the drain finishes. Either
// way a multi-scan plan (joins, self-joins, spool refills) observes a
// single consistent committed state.
//
// The statement executes under its context and a statement-scoped memory
// reservation: cancellation unwinds at batch boundaries through the
// normal error path (the deferred snapshot close and the operator Close
// chain release everything the plan held), and every materialisation the
// plan performs is charged against the process budget, failing fast with
// govern.ErrResourceExhausted rather than growing the heap unbounded.
// Under budget pressure the statement's batches are built smaller first.
func (db *DB) runSelectOp(ctx context.Context, sess *session, op engine.Operator) (*portal.Result, error) {
	res := govern.NewReservation(db.budget)
	defer res.Release()
	capacity := db.batchCap
	if capacity > degradedBatchSize && db.budget.Pressure() > degradePressure {
		capacity = degradedBatchSize
	}
	ex := engine.NewExec(ctx, res, capacity)
	engine.SetExec(op, ex)
	snap := sess.pinned()
	if snap == nil {
		snap = db.store.OpenSnapshot()
		defer snap.Close()
	}
	engine.SetSnapshot(op, snap)
	// Detach the plan before it goes (back) into the cache: a cached
	// operator retains no dead context, dangling snapshot or row of the
	// statement that ran it.
	defer engine.ResetPlan(op)
	rows, err := engine.Drain(op, ex)
	if err != nil {
		return nil, err
	}
	schema := op.Schema()
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name
	}
	return &portal.Result{Columns: cols, Rows: rows}, nil
}

// recoveryAlarmEvery is how many replayed rows separate alarm checks
// during Recover. Coarse enough to stay off the hot path, fine enough
// that a mid-replay tamper aborts within one batch.
const recoveryAlarmEvery = 1024

// recoveryAlarm reports the first sticky alarm on either side of a
// recovery: corrupt source rows must not be re-endorsed, and a corrupted
// destination must not be admitted.
func recoveryAlarm(db, replica *DB) error {
	if err := replica.mem.Alarm(); err != nil {
		return fmt.Errorf("core: recovery source compromised: %w", err)
	}
	if err := db.mem.Alarm(); err != nil {
		return fmt.Errorf("core: recovery destination compromised: %w", err)
	}
	return nil
}

// restoreSource is one table a restore rebuilds: its spec, and a stream
// that hands each of its rows to insert and stops at insert's first error.
type restoreSource struct {
	spec storage.TableSpec
	rows func(insert func(record.Tuple) error) error
}

// restore creates each source's table and inserts its rows through the
// ordinary protected write interfaces, so every row re-enters the RSWS
// accounting: the one restore loop behind checkpoint recovery and Recover.
// alarm is polled every recoveryAlarmEvery rows, and its first error
// aborts the restore.
func (db *DB) restore(srcs []restoreSource, alarm func() error) error {
	restored := 0
	for _, src := range srcs {
		dst, err := db.store.Register(src.spec)
		if err != nil {
			return fmt.Errorf("restoring table %q: %v", src.spec.Name, err)
		}
		err = src.rows(func(row record.Tuple) error {
			if err := dst.Insert(row); err != nil {
				return fmt.Errorf("restoring table %q: %w", src.spec.Name, err)
			}
			if restored++; restored%recoveryAlarmEvery == 0 {
				return alarm()
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Recover rebuilds this (fresh) database from a replica by replaying its
// schema and contents through the ordinary protected write interfaces
// (§5.1 "Recovery from failure": "these repeated writes use the same
// interfaces introduced in Section 4.2, and naturally update the states
// stored in SGX"). The always-running verifier covers the replay itself;
// Recover additionally polls both instances' alarms every batch of rows
// and aborts on the first tamper, and verifies the replica in full before
// resuming the portal's sequence counter — a compromised replica must
// never be replayed into service.
func (db *DB) Recover(replica *DB, seqFloor uint64) error {
	if err := recoveryAlarm(db, replica); err != nil {
		return err
	}
	var srcs []restoreSource
	for _, name := range replica.store.TableNames() {
		src, err := replica.store.Table(name)
		if err != nil {
			return err
		}
		srcs = append(srcs, restoreSource{
			spec: storage.TableSpec{
				Name:         name,
				Schema:       src.Schema(),
				PrimaryKey:   src.PrimaryKeyColumn(),
				ChainColumns: append([]int(nil), src.ChainColumns()[1:]...),
			},
			// The replica streams batch by batch; it is never materialised.
			rows: func(insert func(record.Tuple) error) error {
				sc, err := src.SeqScan()
				if err != nil {
					return err
				}
				defer sc.Close() // releases the scan's snapshot pin
				batch := storage.NewRowBatch(storage.DefaultBatchCapacity)
				for {
					n, err := sc.NextBatch(batch)
					if err != nil {
						return fmt.Errorf("core: recovery scan of %q: %w", name, err)
					}
					if n == 0 {
						return nil
					}
					for i := 0; i < n; i++ {
						if err := insert(batch.Row(i)); err != nil {
							return err
						}
					}
				}
			},
		})
	}
	if err := db.restore(srcs, func() error { return recoveryAlarm(db, replica) }); err != nil {
		return err
	}
	// Full source verification closes the window between the last batch
	// check and the end of the replay: every source page's read-set image
	// must still reconcile with its write set.
	if err := replica.mem.VerifyAll(); err != nil {
		return fmt.Errorf("core: recovery source failed final verification: %w", err)
	}
	if err := recoveryAlarm(db, replica); err != nil {
		return err
	}
	db.portal.ResumeAt(seqFloor)
	return nil
}

// TableNames lists tables.
func (db *DB) TableNames() []string { return db.store.TableNames() }

// Explain returns a plan description for a SELECT.
func (db *DB) Explain(query string) (string, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return "", fmt.Errorf("core: EXPLAIN supports only SELECT, got %T", stmt)
	}
	op, err := db.Plan(sel)
	if err != nil {
		return "", err
	}
	return strings.TrimRight(plan.Describe(op), "\n"), nil
}
