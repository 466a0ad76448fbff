package core

// This file is the durable-storage wiring: the append-before-ack
// discipline, checkpoint scheduling, and the recovery entry point.
// Everything here is gated on Config.DataDir — an in-memory database
// carries a nil durable state and executes bit-identically to
// pre-durability builds.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"veridb/internal/plan"
	"veridb/internal/portal"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/storage"
	"veridb/internal/wal"
)

// checkpointFloor is the smallest log an automatic checkpoint compacts. A
// checkpoint rewrites the whole image, and below the floor replaying the
// log is cheaper than that rewrite.
const checkpointFloor = 64 << 20

// checkpointDue is the automatic checkpoint rule: the record bytes logged
// since the last checkpoint reach max(checkpointFloor, image), the byte
// size of that checkpoint's segments. Recovery then replays at most one
// image-sized log however long the instance has run, and each image is
// rewritten at most once per image's worth of log.
func checkpointDue(logged, image int64) bool {
	return logged >= max(checkpointFloor, image)
}

// durable is the per-DB durability state.
type durable struct {
	log *wal.Log

	// gate serialises logged statements against checkpoints: DML holds it
	// shared across apply+append, a checkpoint holds it exclusively while
	// it freezes the table images and rotates the WAL.
	gate sync.RWMutex
	// failedAt is the logged byte count at the last failed checkpoint, 0
	// once one succeeds: a failing checkpoint is retried after another
	// threshold of log, not on every statement. Guarded by gate.
	failedAt int64
	// mu orders concurrent logged statements: the WAL must record
	// statements in the order their effects landed in memory, so apply and
	// append happen under one lock. Reads never take it.
	mu sync.Mutex
	// broken is the sticky I/O failure: once an append cannot be made
	// durable, further writes are refused rather than silently acked
	// without durability. Atomic, like ckptErr, so Health reads both
	// without queueing behind a statement that holds mu.
	broken atomic.Pointer[error]
	// ckptErr is the last checkpoint's failure, automatic or manual, nil
	// once a checkpoint succeeds; Health reports it.
	ckptErr atomic.Pointer[error]
}

// fence records the first append or fsync failure and returns the sticky
// error every later write is refused with.
func (d *durable) fence(werr error) error {
	err := fmt.Errorf("%w: %v", ErrWALBroken, werr)
	d.broken.CompareAndSwap(nil, &err)
	return *d.broken.Load()
}

// ErrWALBroken wraps every statement rejected because a WAL append or
// sync failed: the write-ahead invariant (no ack before the record is on
// disk) can no longer be kept, so writes are fenced. Reads still serve.
var ErrWALBroken = errors.New("core: WAL append failed; refusing further writes")

// openDurable runs recovery for cfg.DataDir and attaches the WAL. Tamper
// anywhere in the durable state raises the memory's sticky alarm and
// returns nil: the DB opens quarantined, so the containment path
// (fencing, then Recover from a replica) engages instead of silent
// acceptance.
// Environmental errors (I/O, permissions) fail the open.
func (db *DB) openDurable(cfg Config) error {
	log, rec, err := wal.Open(cfg.DataDir)
	if errors.Is(err, wal.ErrTamper) {
		db.mem.RaiseAlarm(err)
		return nil
	}
	if err != nil {
		return err
	}
	if err := db.replayRecovery(rec); err != nil {
		// Replay failures mean the authenticated log disagrees with what
		// the statements can actually do — corrupt state, not environment.
		db.mem.RaiseAlarm(fmt.Errorf("%w: %v", wal.ErrTamper, err))
		log.Close()
		return nil
	}
	// The recovered image is admitted only after the full verification
	// gate passes; a failure has already raised the sticky alarm.
	if err := db.mem.VerifyAll(); err != nil {
		log.Close()
		return nil
	}
	db.dur = &durable{log: log}
	return nil
}

// replayRecovery rebuilds the database image: checkpoint segments load
// through the ordinary protected write interfaces (every row re-enters
// the RSWS accounting, exactly like the §5.1 replica replay), then the
// WAL tail replays statement by statement, each parsed, compiled and
// applied unlogged. The background verifier is not running yet — Open
// starts it only after recovery and its final verification complete.
func (db *DB) replayRecovery(rec *wal.Recovery) error {
	srcs := make([]restoreSource, len(rec.Checkpoint))
	for i, img := range rec.Checkpoint {
		srcs[i] = restoreSource{
			spec: storage.TableSpec{
				Name:         img.Name,
				Schema:       record.NewSchema(img.Columns...),
				PrimaryKey:   img.PrimaryKey,
				ChainColumns: img.ChainColumns,
			},
			rows: func(insert func(record.Tuple) error) error {
				for _, row := range img.Rows {
					if err := insert(row); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	if err := db.restore(srcs, db.mem.Alarm); err != nil {
		return err
	}
	sess := db.sessionFor("")
	for _, r := range rec.Tail {
		if r.Type != wal.RecStmt {
			return fmt.Errorf("WAL record %d has unknown type %d", r.Seq, r.Type)
		}
		stmt, err := sql.Parse(string(r.Payload))
		if err != nil {
			return fmt.Errorf("WAL record %d does not parse: %v", r.Seq, err)
		}
		if !isMutating(stmt) {
			return fmt.Errorf("WAL record %d is not a mutating statement", r.Seq)
		}
		// Only statements that fully succeeded were logged, so a replay
		// failure means the log and the rebuilt image diverged. db.dur is
		// still nil: apply does not log the statement again.
		in, err := db.compile(sess, stmt, nil)
		if err == nil {
			_, err = db.apply(context.Background(), sess, in)
		}
		if err != nil {
			return fmt.Errorf("replaying WAL record %d: %v", r.Seq, err)
		}
	}
	return nil
}

// isMutating reports whether a statement changes database state (and so
// must be logged before its result is acked).
func isMutating(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.CreateTable, *sql.DropTable, *sql.Insert, *sql.Update, *sql.Delete:
		return true
	}
	return false
}

// executeDurable applies one mutating statement's instance and appends
// the statement to the WAL before acking. The lock order (gate shared,
// then mu) keeps the log's statement order identical to the memory's
// apply order — the property replay equivalence rests on — while
// checkpoints exclude the whole path. Apply and enqueue happen under mu
// (the instance was compiled before, outside both locks); the durability
// wait happens outside it, so concurrent statements can form a commit
// group and share one fsync (the statement gate stays held shared across
// the wait, which is how checkpoints quiesce in-flight groups).
//
// A crash between apply and fsync loses an unacked write (correct: the
// client never saw a success), and an append or group-fsync failure
// refuses the ack and fences further writes rather than acking a
// non-durable statement.
func (db *DB) executeDurable(ctx context.Context, sess *session, query string, in *plan.Instance) (*portal.Result, error) {
	d := db.dur
	d.gate.RLock()
	d.mu.Lock()
	if broken := d.broken.Load(); broken != nil {
		d.mu.Unlock()
		d.gate.RUnlock()
		return nil, *broken
	}
	res, err := db.apply(ctx, sess, in)
	if err != nil {
		d.mu.Unlock()
		d.gate.RUnlock()
		return nil, err
	}
	tk, werr := d.log.Enqueue(wal.RecStmt, []byte(query))
	if werr != nil {
		err := d.fence(werr)
		d.mu.Unlock()
		d.gate.RUnlock()
		return nil, err
	}
	d.mu.Unlock()
	if _, werr := tk.Wait(); werr != nil {
		err := d.fence(werr)
		d.gate.RUnlock()
		return nil, err
	}
	due := d.due()
	d.gate.RUnlock()
	if due {
		// The statement is already durable in the old WAL; a checkpoint
		// failure costs compaction, not correctness, so it is reported
		// through Health and not by failing an acked statement.
		_ = db.checkpoint(false)
	}
	return res, nil
}

// due reports whether checkpointDue fires for the log as it stands. The
// caller holds the gate, shared or exclusive.
func (d *durable) due() bool {
	logged, image := d.log.Sizes()
	return checkpointDue(logged-d.failedAt, image)
}

// Checkpoint freezes the current verified table contents into immutable
// on-disk segments with a MACed manifest and rotates the WAL (bottom-up
// bulk build: each segment is the table's rows in primary-key order from
// a verified sequential scan). It requires a data dir. Automatic
// checkpoints ride the statement path whenever checkpointDue fires; this
// entry point lets operators and tests force one.
func (db *DB) Checkpoint() error { return db.checkpoint(true) }

// checkpoint runs one checkpoint; unforced, it first re-checks the rule
// under the exclusive gate, so statements that all saw it fire checkpoint
// once. A failure is reported through Health.CheckpointError.
func (db *DB) checkpoint(force bool) error {
	if err := db.QuarantineError(); err != nil {
		return err
	}
	d := db.dur
	if d == nil {
		return errors.New("core: checkpointing requires a data dir")
	}
	d.gate.Lock()
	defer d.gate.Unlock()
	if !force && !d.due() {
		return nil
	}
	images, err := db.tableImages()
	if err == nil {
		err = d.log.Checkpoint(images)
	}
	if err != nil {
		if db.mem.Alarm() == nil {
			d.ckptErr.Store(&err)
		}
		d.failedAt, _ = d.log.Sizes()
		return err
	}
	d.failedAt = 0
	d.ckptErr.Store(nil)
	return nil
}

// tableImages snapshots every table through verified sequential scans at
// one snapshot. Callers hold the statement gate exclusively, so the images
// are a consistent cut of the database; the snapshot is released on
// return, since a leaked pin would hold the version reclamation floor from
// this checkpoint on.
func (db *DB) tableImages() ([]*wal.TableImage, error) {
	names := db.store.TableNames()
	snap := db.store.OpenSnapshot()
	defer snap.Close()
	var images []*wal.TableImage
	for _, name := range names {
		t, err := db.store.Table(name)
		if err != nil {
			return nil, err
		}
		img := &wal.TableImage{
			Name:         name,
			Columns:      t.Schema().Columns,
			PrimaryKey:   t.PrimaryKeyColumn(),
			ChainColumns: append([]int(nil), t.ChainColumns()[1:]...),
			Rows:         make([]record.Tuple, 0, t.RowCount()),
		}
		sc, err := t.SeqScanAt(snap)
		if err != nil {
			return nil, err
		}
		batch := storage.NewRowBatch(storage.DefaultBatchCapacity)
		for {
			n, err := sc.NextBatch(batch)
			if err != nil {
				sc.Close()
				return nil, fmt.Errorf("core: checkpoint scan of %q: %w", name, err)
			}
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				img.Rows = append(img.Rows, batch.Row(i).Clone())
			}
		}
		sc.Close()
		images = append(images, img)
	}
	return images, nil
}

// WALPath returns the active WAL file path ("" in memory-only mode);
// crash harnesses cut the log here.
func (db *DB) WALPath() string {
	if db.dur == nil {
		return ""
	}
	return db.dur.log.Path()
}

// WALNextSeq returns the next WAL sequence number (0 in memory-only
// mode).
func (db *DB) WALNextSeq() uint64 {
	if db.dur == nil {
		return 0
	}
	return db.dur.log.NextSeq()
}
