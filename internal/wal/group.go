package wal

// The commit group: the log's one append path. Callers Enqueue encoded
// records — the MAC chain advances at enqueue time, under the log mutex, so
// the on-disk byte order and the torn-vs-tamper classifier are those of a
// log appended one record at a time — and the first enqueuer of an open
// group is its leader. The leader's Wait waits for the predecessor group's
// write+fsync to finish, drains whatever has been enqueued by then, and
// writes the batch with one write and one fsync. Every waiter's Wait
// returns only after that fsync: no record is acked before it is durable.
// The write lands in place at the log's end, below a file length that
// grows in walChunk steps, so the fsync flushes data without a size
// change except on the one group per step that extends the file.
//
// The predecessor's fsync is the batching window. A lone writer finds no
// fsync in flight, so its group holds one record and is written at once —
// the serial append, byte for byte. Concurrent writers share an fsync for
// exactly as long as one was already in flight; there is no timer and no
// size cap to tune.
//
// Go mutexes are not FIFO, so byte order on disk rests on that same wait:
// a group is drained — and the next one may open — only after every
// earlier group's bytes are down, hence at most one flush is in flight and
// groups reach the file in the order their records were chained. Draining
// also reserves the group's extent: the log's end advances under the
// mutex, so the offset each group is written at is its chain position.
//
// A failed group write or fsync is sticky: l.failed is set under the log
// mutex before any waiter of the failing group — or of any later group,
// whose records chain past bytes that never reached disk — is woken, so
// no caller can ack a statement whose durability is in doubt.

import (
	"errors"
	"fmt"
	"os"
)

// group is one batch of records that reaches disk with a single write and
// fsync.
type group struct {
	buf  []byte          // encoded records, in chain order
	prev <-chan struct{} // the predecessor group's done (nil for the first)
	done chan struct{}   // closed once this group is on disk, or failed
	err  error           // the flush's outcome; read only after done
}

// Ticket is one caller's stake in a pending group: Wait blocks until the
// group containing the caller's record is durably on disk (or failed).
type Ticket struct {
	l      *Log
	seq    uint64
	g      *group
	leader bool
}

// SetSyncHook substitutes fn for File.Sync on the append path — fault
// injection for tests. A nil fn restores the real fsync.
func (l *Log) SetSyncHook(fn func(*os.File) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncHook = fn
}

// Enqueue encodes one record into the open group and returns a Ticket.
// The chain state (previous MAC, next sequence) advances immediately, so
// a later Enqueue chains on this record even before it is flushed. The
// record is durable only once Ticket.Wait returns nil.
func (l *Log) Enqueue(typ byte, payload []byte) (*Ticket, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil, errors.New("wal: log closed")
	}
	if l.failed != nil {
		return nil, l.failed
	}
	g := l.open
	leader := g == nil
	if leader {
		g = &group{prev: l.last, done: make(chan struct{})}
		l.open = g
	}
	seq := l.nextSeq
	n := len(g.buf)
	g.buf = appendRecord(g.buf, l.key, l.prevMAC, seq, typ, payload)
	l.logged += int64(len(g.buf) - n)
	l.prevMAC = chainMAC(l.key, l.prevMAC, seq, typ, payload)
	l.nextSeq = seq + 1
	return &Ticket{l: l, seq: seq, g: g, leader: leader}, nil
}

// Wait blocks until the ticket's record is durable and returns its
// sequence number. The group's leader flushes it; followers wait for the
// leader's signal. An error means the record may not be on disk — the
// caller must not ack — and the log is fenced.
func (t *Ticket) Wait() (uint64, error) {
	var err error
	if t.leader {
		err = t.l.flush(t.g)
	} else {
		<-t.g.done
		err = t.g.err
	}
	if err != nil {
		return 0, err
	}
	return t.seq, nil
}

// Append writes one record, fsyncs (possibly as part of a group), and
// returns its sequence number. The record is durable — and may be acked —
// only once Append returns nil.
func (l *Log) Append(typ byte, payload []byte) (uint64, error) {
	t, err := l.Enqueue(typ, payload)
	if err != nil {
		return 0, err
	}
	return t.Wait()
}

// flush puts group g on disk, strictly after every earlier group: wait
// for the predecessor, close g to new records, write and fsync. Called by
// g's leader, and by Close and Checkpoint for a group whose leader has not
// got there yet; whoever loses that race waits for the winner's result.
func (l *Log) flush(g *group) error {
	if g.prev != nil {
		<-g.prev // the predecessor's bytes are down (or it failed)
	}
	l.mu.Lock()
	if l.open != g {
		l.mu.Unlock()
		<-g.done
		return g.err
	}
	l.open, l.last = nil, g.done
	f, sync, err := l.f, l.syncHook, l.failed
	off, grow := l.end, int64(0)
	l.end += int64(len(g.buf))
	if l.end > l.size {
		grow = (l.end + walChunk - 1) / walChunk * walChunk
		l.size = grow
	}
	l.mu.Unlock()
	if sync == nil {
		sync = (*os.File).Sync
	}

	if err == nil {
		err = writeGroup(f, sync, g.buf, off, grow)
		if err != nil {
			// Fence before any waiter wakes: once failed is visible, no
			// Enqueue succeeds and every later group's flush fails too.
			l.mu.Lock()
			if l.failed == nil {
				l.failed = err
			}
			l.mu.Unlock()
		}
	}
	g.err = err
	close(g.done)
	return err
}

// writeGroup lands buf at off, first extending the file to grow bytes
// when the group passes its length (grow is 0 otherwise), then fsyncs.
func writeGroup(f *os.File, sync func(*os.File) error, buf []byte, off, grow int64) error {
	if grow > 0 {
		if err := f.Truncate(grow); err != nil {
			return fmt.Errorf("wal: extending log: %w", err)
		}
	}
	if _, err := f.WriteAt(buf, off); err != nil {
		return fmt.Errorf("wal: writing group: %w", err)
	}
	if err := sync(f); err != nil {
		return fmt.Errorf("wal: syncing group: %w", err)
	}
	return nil
}

// drainPending flushes the open group, if any, and waits for every drained
// group to reach disk. Callers must NOT hold l.mu. Close and Checkpoint
// settle the log with it before they touch the file handle.
func (l *Log) drainPending() {
	l.mu.Lock()
	g, last := l.open, l.last
	l.mu.Unlock()
	if g != nil {
		_ = l.flush(g) // the group's waiters get the error; the fence holds it
	} else if last != nil {
		<-last
	}
}
