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
	// MVCC version chains and the portal's replay windows, process-wide.
	// A statement whose materialisations would exceed it fails fast with a
	// typed govern.ErrResourceExhausted. Zero tracks usage without
	// refusing.
	MemBudget int64
	// MaxConcurrentStatements caps statements executing inside the kernel
	// at once; a statement that finds every slot taken is shed at once
	// with a typed govern.ErrOverloaded carrying a RetryAfter hint. Zero
	// disables admission control.
	MaxConcurrentStatements int
	// SessionMaxIdle expires a client session's pinned snapshot (BEGIN
	// SNAPSHOT) after this much statement inactivity, unblocking version
	// reclamation when a client vanishes mid-session. The expired session's next
	// statement fails once with ErrSessionExpired. Zero never expires.
	SessionMaxIdle time.Duration
}

// ErrQuarantined wraps every request rejected because the database's
// verifier raised a sticky tamper alarm: the state machine is fenced and
// only a fresh instance rebuilt with Recover can restore service.
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
		admit:          govern.NewAdmission(cfg.MaxConcurrentStatements),
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
// what an operator polls to decide on recovery from a replica, and reads
// to understand an outage.
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
// plan cache enabled, a repeated SELECT, INSERT, UPDATE or DELETE shape —
// an EXECUTE's template with its arguments in place included — skips the
// parser, the planner and the expression compiler.
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
// statements pass the admission gate first; once MaxConcurrentStatements
// are running, new statements are refused with a typed
// govern.ErrOverloaded. Integrity fences take precedence over the shed,
// so neither quarantine nor a fenced WAL is masked as overload.
func (db *DB) ExecuteContext(ctx context.Context, clientID, query string) (*portal.Result, error) {
	// Fence first: a quarantined instance refuses with the quarantine
	// error no matter how loaded it is.
	if err := db.QuarantineError(); err != nil {
		return nil, err
	}
	release, err := db.admit.Acquire()
	if err != nil {
		if ferr := db.writeFence(clientID, query); ferr != nil {
			return nil, ferr
		}
		return nil, err
	}
	defer release()
	if db.stmtTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, db.stmtTimeout)
		defer cancel()
	}
	return db.executeAdmitted(ctx, clientID, query)
}

// writeFence is the sticky WAL error when the log is fenced and query
// changes the database, nil otherwise: a shed write must not come back as
// a retryable overload when no retry can make it durable. It runs only on
// the shed path, so the parse it may need costs an admitted statement
// nothing.
func (db *DB) writeFence(clientID, query string) error {
	if db.dur == nil {
		return nil
	}
	broken := db.dur.broken.Load()
	if broken == nil {
		return nil
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil
	}
	if ex, ok := stmt.(*sql.ExecutePrepared); ok {
		sess := db.sessionFor(clientID)
		sess.mu.Lock()
		prep := sess.prepared[ex.Name]
		sess.mu.Unlock()
		if prep == nil {
			return nil
		}
		stmt = prep.Stmt
	}
	if !isMutating(stmt) {
		return nil
	}
	return *broken
}

// executeAdmitted runs one statement that already holds an admission slot.
// What it pays before the statement's own work is one lexer pass: the
// shape key the plan cache is looked up under, and the literals a cached
// instance is rebound to. Parse, plan and compile run on a miss only. An
// EXECUTE is resolved first and from then on runs as its expansion, as if
// the client had sent the template with the arguments written in.
func (db *DB) executeAdmitted(ctx context.Context, clientID, query string) (*portal.Result, error) {
	sess := db.sessionFor(clientID)
	if err := db.touchSession(sess); err != nil {
		return nil, err
	}
	// Text that does not lex goes to Parse, which reports it.
	key, lits, err := sql.Shape(query)
	var x sql.Expansion
	if err == nil && statementKind(key) == "EXECUTE" {
		if x, err = sess.expand(query); err != nil {
			return nil, err
		}
		key, lits, err = x.Shape()
		if db.dur != nil {
			// An EXECUTEd write is logged as its expansion's text, so
			// replay needs no prepared-statement registry.
			query = x.String()
		}
	}
	cached := err == nil && cachedKind(key)
	// Read the version before planning: a DDL between here and Put files
	// the instance under a stale version, which the next Get discards.
	version := db.store.CatalogVersion()
	var in *plan.Instance
	if cached {
		if in = db.planCache.Get(key, version); in != nil {
			in.Bind(lits)
		}
	}
	if in == nil {
		var stmt sql.Statement
		var slots []*sql.Literal
		if x != nil {
			stmt, slots, err = x.ParseSlots()
		} else {
			stmt, slots, err = sql.ParseSlots(query)
		}
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

// statementKind is the first word of a shape key: its statement keyword.
func statementKind(key string) string {
	kw, _, _ := strings.Cut(key, " ")
	return kw
}

// cachedKind reports whether a shape key is of a statement kind the plan
// cache holds: the repeated-shape statements (queries and DML). DDL and
// the prepared-statement and snapshot control flow always compile fresh.
func cachedKind(key string) bool {
	switch statementKind(key) {
	case "SELECT", "INSERT", "UPDATE", "DELETE":
		return true
	}
	return false
}

// expand resolves an EXECUTE against the session's registry: the template
// is looked up by name and its arguments, constant expressions, are
// evaluated into the values its placeholders take.
func (s *session) expand(query string) (sql.Expansion, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	ex := stmt.(*sql.ExecutePrepared) // a statement whose shape starts EXECUTE
	s.mu.Lock()
	prep, ok := s.prepared[ex.Name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no prepared statement %q", ex.Name)
	}
	args := make([]record.Value, len(ex.Args))
	for i, e := range ex.Args {
		c, err := engine.Compile(e, engine.Schema{})
		if err == nil {
			args[i], err = c.Eval(nil)
		}
		if err != nil {
			return nil, fmt.Errorf("core: EXECUTE argument %d: %w", i+1, err)
		}
	}
	return prep.Expand(args)
}

// compile builds the instance a parsed statement runs as: a SELECT is
// planned; an INSERT, UPDATE or DELETE gets its table and its value
// expressions compiled, and an UPDATE or DELETE its read phase planned;
// anything else runs from its AST. A pinned session refuses a write
// before the write's table is looked up.
func (db *DB) compile(sess *session, stmt sql.Statement, slots []*sql.Literal) (*plan.Instance, error) {
	in := &plan.Instance{Stmt: stmt, Slots: slots, Rebindable: true}
	if err := sess.writable(in.Stmt); err != nil {
		return nil, err
	}
	var err error
	switch s := in.Stmt.(type) {
	case *sql.Select:
		err = db.planRead(in, s)
	case *sql.Insert:
		if in.Table, err = db.store.Table(s.Table); err == nil {
			in.Values, err = compileValues(in.Table, s)
		}
	case *sql.Update:
		if in.Table, err = db.store.Table(s.Table); err == nil {
			in.Set, err = compileSet(in.Table, s)
		}
		if err == nil {
			err = db.planRead(in, readPhase(in.Table, s.Where))
		}
	case *sql.Delete:
		if in.Table, err = db.store.Table(s.Table); err == nil {
			err = db.planRead(in, readPhase(in.Table, s.Where))
		}
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// planRead plans sel as the instance's Op: a SELECT, or the read phase of
// an UPDATE or DELETE.
func (db *DB) planRead(in *plan.Instance, sel *sql.Select) error {
	op, err := plan.PlanSelect(db.store, sel, db.opts)
	if err != nil {
		return err
	}
	in.Op, in.Res = op, govern.NewReservation(db.budget)
	in.Rebindable = in.Rebindable && plan.Rebindable(sel)
	return nil
}

// readPhase is the SELECT an UPDATE or DELETE finds its rows with: every
// column of the rows of t that where holds for.
func readPhase(t storage.Engine, where sql.Expr) *sql.Select {
	return &sql.Select{
		Items: []sql.SelectItem{{Star: true}},
		From:  []sql.TableRef{{Table: t.Name(), Alias: t.Name()}},
		Where: where,
		Limit: -1,
	}
}

// compileValues compiles an INSERT's value rows, each value tagged with
// the column it fills: the named ones, or every column in schema order.
func compileValues(t storage.Engine, ins *sql.Insert) ([][]plan.Assign, error) {
	order := record.AllColumns(t.Schema().Len())
	if len(ins.Columns) > 0 {
		order = make([]int, len(ins.Columns))
		for i, name := range ins.Columns {
			if order[i] = t.Schema().ColIndex(name); order[i] < 0 {
				return nil, fmt.Errorf("core: table %q has no column %q", ins.Table, name)
			}
		}
	}
	values := make([][]plan.Assign, len(ins.Rows))
	for r, row := range ins.Rows {
		if len(row) != len(order) {
			return nil, fmt.Errorf("core: INSERT row has %d values for %d columns", len(row), len(order))
		}
		values[r] = make([]plan.Assign, len(row))
		for i, e := range row {
			c, err := engine.Compile(e, engine.Schema{})
			if err != nil {
				return nil, err
			}
			values[r][i] = plan.Assign{Col: order[i], Expr: c}
		}
	}
	return values, nil
}

// compileSet compiles an UPDATE's SET list against the row its read
// phase's scan reports.
func compileSet(t storage.Engine, up *sql.Update) ([]plan.Assign, error) {
	row := (&engine.TableScan{Table: t, Alias: up.Table}).Schema()
	set := make([]plan.Assign, len(up.Set))
	for i, a := range up.Set {
		ci := t.Schema().ColIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("core: table %q has no column %q", up.Table, a.Column)
		}
		c, err := engine.Compile(a.Value, row)
		if err != nil {
			return nil, err
		}
		set[i] = plan.Assign{Col: ci, Expr: c}
	}
	return set, nil
}

// run executes an instance, fresh or checked out of the cache and rebound:
// on a durable instance a write or DDL statement through the WAL,
// everything else through apply.
func (db *DB) run(ctx context.Context, sess *session, query string, in *plan.Instance) (*portal.Result, error) {
	if db.dur != nil && isMutating(in.Stmt) {
		return db.executeDurable(ctx, sess, query, in)
	}
	return db.apply(ctx, sess, in)
}

// apply runs an instance without logging it: every statement of an
// in-memory database, the step executeDurable logs, and WAL replay. Once
// the verifier's alarm is sticky every statement — reads included — is
// fenced with ErrQuarantined: results computed from tampered state must
// never be endorsed.
func (db *DB) apply(ctx context.Context, sess *session, in *plan.Instance) (*portal.Result, error) {
	if err := db.QuarantineError(); err != nil {
		return nil, err
	}
	if err := sess.writable(in.Stmt); err != nil {
		return nil, err
	}
	switch {
	case in.Table != nil:
		return db.write(ctx, in)
	case in.Op != nil:
		return db.runSelectOp(ctx, sess, in)
	}
	return db.executeStmtSess(sess, in.Stmt)
}

// writable refuses a statement that changes the database while the session
// has a snapshot pinned: the session is read-only until COMMIT.
func (s *session) writable(stmt sql.Statement) error {
	if isMutating(stmt) && s.pinned() != nil {
		return fmt.Errorf("core: session is read-only while a snapshot is pinned; COMMIT first")
	}
	return nil
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
	// Admission snapshots the admitted/shed/in-flight counters.
	Admission govern.AdmissionStats
	// SessionsExpired counts pinned sessions the idle reaper released.
	SessionsExpired int64
	// SnapshotPins is the number of snapshot pins currently held.
	SnapshotPins int
	// ResponseCache snapshots the portal's replay windows.
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

// executeStmtSess runs the statements compile leaves as ASTs: DDL, the
// snapshot and prepared-statement control flow, and EXPLAIN.
func (db *DB) executeStmtSess(sess *session, stmt sql.Statement) (*portal.Result, error) {
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
	case *sql.Prepare:
		sess.mu.Lock()
		sess.prepared[s.Name] = s
		sess.mu.Unlock()
		return &portal.Result{}, nil
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

// write runs an INSERT, UPDATE or DELETE instance. An UPDATE or DELETE
// first drains its read phase at the latest state; cancellation applies to
// that phase only. Every row the statement writes is computed before the
// first is written, and the write loop then runs to completion under one
// commit timestamp: there is no undo log, so a statement's effects are
// atomic only if nothing in the loop can fail on a value.
func (db *DB) write(ctx context.Context, in *plan.Instance) (*portal.Result, error) {
	t := in.Table
	// The table compile found must still be the catalog's: a write to one
	// dropped since would be logged, and replay could not repeat it.
	if cur, err := db.store.Table(t.Name()); err != nil {
		return nil, err
	} else if cur != t {
		return nil, fmt.Errorf("core: table %q was dropped and recreated while the statement ran", t.Name())
	}
	var rows, news []record.Tuple
	var err error
	if in.Op != nil {
		defer in.Res.Release()
		if rows, err = db.drain(ctx, in, nil); err != nil {
			return nil, err
		}
	}
	switch in.Stmt.(type) {
	case *sql.Insert:
		rows, err = insertRows(t.Schema(), in.Values)
	case *sql.Update:
		news, err = updatedRows(rows, in.Set)
	}
	if err != nil {
		return nil, err
	}
	pk := t.PrimaryKeyColumn()
	c := db.store.BeginCommit()
	defer c.Done()
	for i, row := range rows {
		switch in.Stmt.(type) {
		case *sql.Insert:
			err = t.InsertAt(row, c)
		case *sql.Update:
			err = t.UpdateAt(row[pk], news[i], c)
		default:
			err = t.DeleteAt(row[pk], c)
		}
		if err != nil {
			return nil, err
		}
	}
	return &portal.Result{Affected: len(rows)}, nil
}

// insertRows evaluates an INSERT's value rows into whole tuples, NULL in
// every column the statement does not name.
func insertRows(schema *record.Schema, values [][]plan.Assign) ([]record.Tuple, error) {
	rows := make([]record.Tuple, len(values))
	for r, row := range values {
		tup := make(record.Tuple, schema.Len())
		for i := range tup {
			tup[i] = record.Null(schema.Columns[i].Type)
		}
		for _, a := range row {
			v, err := a.Expr.Eval(nil)
			if err != nil {
				return nil, err
			}
			tup[a.Col] = v
		}
		rows[r] = tup
	}
	return rows, nil
}

// updatedRows computes the new image of each row an UPDATE matched: a
// copy with the SET columns replaced, every expression evaluated against
// the row as it was.
func updatedRows(rows []record.Tuple, set []plan.Assign) ([]record.Tuple, error) {
	news := make([]record.Tuple, len(rows))
	for i, row := range rows {
		news[i] = row.Clone()
		for _, a := range set {
			v, err := a.Expr.Eval(row)
			if err != nil {
				return nil, err
			}
			news[i][a.Col] = v
		}
	}
	return news, nil
}

// runSelectOp drains a SELECT instance's compiled plan into a result.
// Every base-table scan in the plan reads one snapshot: the session's
// pinned one (BEGIN SNAPSHOT) when present, otherwise a statement snapshot
// opened at the current commit watermark and released when the drain
// finishes. Either way a multi-scan plan (joins, self-joins, a nested-loop
// join's inner rescans) observes a single consistent committed state.
func (db *DB) runSelectOp(ctx context.Context, sess *session, in *plan.Instance) (*portal.Result, error) {
	defer in.Res.Release()
	snap := sess.pinned()
	if snap == nil {
		snap = db.store.OpenSnapshot()
		defer snap.Close()
	}
	rows, err := db.drain(ctx, in, snap)
	if err != nil {
		return nil, err
	}
	cols := in.Columns
	if cols == nil {
		var fixed bool
		if cols, fixed = engine.Names(in.Op); fixed {
			in.Columns = cols
		}
	}
	return &portal.Result{Columns: cols, Rows: rows}, nil
}

// drain runs an instance's compiled plan to completion at snap (nil reads
// the latest state) under the statement's context and the instance's
// reservation: cancellation unwinds at batch boundaries through the
// operator Close chain, and every materialisation, the drained rows
// included, is charged against the process budget: a statement the budget
// cannot cover fails fast with govern.ErrResourceExhausted. The controls
// and the batch are the instance's, reused by each execution of a cached
// one; the caller releases in.Res once it is done with the rows.
func (db *DB) drain(ctx context.Context, in *plan.Instance, snap *storage.Snapshot) ([]record.Tuple, error) {
	ex := &in.Exec
	ex.Reset(ctx, in.Res, db.batchCap, snap)
	engine.SetExec(in.Op, ex)
	// Detach the plan before it goes (back) into the cache: a cached
	// instance retains no dead context, dangling snapshot or row of the
	// statement that ran it.
	defer func() {
		engine.ResetPlan(in.Op)
		ex.Reset(nil, nil, 0, nil)
	}()
	rows, batch, err := engine.DrainThrough(in.Op, ex, in.Batch)
	in.Batch = batch
	return rows, err
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
		dst, err := db.store.CreateTable(src.spec)
		if err != nil {
			return fmt.Errorf("restoring table %q: %v", src.spec.Name, err)
		}
		err = src.rows(func(row record.Tuple) error {
			if err := dst.InsertAt(row, nil); err != nil {
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
// stored in SGX"). Recover polls both instances' alarms every batch of
// rows and aborts on the first tamper, then verifies the replica and this
// instance in full before resuming the portal's sequence counter above
// seqFloor: a compromised replica must never be replayed into service, and
// a rebuild is admitted only once every one of its pages reconciles. On
// error the counter is left where it was.
func (db *DB) Recover(replica *DB, seqFloor uint64) error {
	if err := recoveryAlarm(db, replica); err != nil {
		return err
	}
	names := replica.store.TableNames()
	// Every table streams from one snapshot, pinned after the names are
	// listed so that each listed table already exists at it.
	snap := replica.store.OpenSnapshot()
	defer snap.Close()
	var srcs []restoreSource
	for _, name := range names {
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
				sc, err := src.SeqScanAt(snap)
				if err != nil {
					return err
				}
				defer sc.Close()
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
	// The destination is verified in full too: its alarm polls only see
	// what a background verifier has already scanned, and an instance opened
	// without one has scanned nothing.
	if err := db.mem.VerifyAll(); err != nil {
		return fmt.Errorf("core: recovery destination failed final verification: %w", err)
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
