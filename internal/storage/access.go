package storage

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"veridb/internal/index"
	"veridb/internal/record"
)

// tableLock serialises structural mutation of a shard; scanners hold it
// shared while they fill a batch.
type tableLock = sync.RWMutex

// Evidence is the single-record proof an access method hands upward: the
// ⟨key, nKey⟩ interval that proves the presence or absence of the queried
// key (§4.2: "the existence or absence of queried data is proved by a
// single record in the database").
type Evidence struct {
	Table string
	Chain int
	Key   record.Key // key of the evidence record
	NKey  record.Key // its successor key
	Found bool       // true: Key matches the probe; false: probe ∈ (Key, NKey)
}

func (e Evidence) String() string {
	rel := "proves absence in"
	if e.Found {
		rel = "proves presence at"
	}
	return fmt.Sprintf("%s.chain%d ⟨%v,%v⟩ %s probe", e.Table, e.Chain, e.Key, e.NKey, rel)
}

// ScanBounds delimit a verified range scan in chain-key space. Nil Start
// means ⊥ (scan from the beginning); nil End means ⊤.
type ScanBounds struct {
	Start *record.Key // inclusive target lower bound ('a' in Example 5.1)
	End   *record.Key // inclusive target upper bound ('b')
}

// Scanner is the verified range/sequential scan of §5.2 over one shard's
// sub-chain. It walks the key chain record by record and enforces, on every
// record it visits:
//
//  1. the first record's key is ≤ the range start,
//  2. scanning continues until a record's nKey exceeds the range end (so
//     the final nKey proves nothing was omitted at the top),
//  3. every record's key equals its predecessor's nKey (no gaps), and
//  4. every record's nKey is above its own key (chainLink), so a rewritten
//     link cannot send the walk round in a circle.
//
// (1)-(3) are the conditions of Example 5.1.
//
// On a versioned table every chain step is resolved as of a pinned
// snapshot seq through the shard's version history (mvcc.go), so the chain
// it verifies is the committed chain at the snapshot, which concurrent
// writers cannot change. That stability is what lets it hold the shard's
// shared latch only while it fills one batch and nothing between fills:
// writers are never blocked behind an open unfinished scan
// (TestWriterNotBlockedByOpenScan).
//
// What a scanned row costs is its two PRF evaluations (vmem's Alg. 1 Read),
// the validation of its whole image, and the decoding of the columns the
// batch's projection (RowBatch.Cols) lists, into values cut from the fill's
// slab. Everything else is paid per fill: one latch acquisition, one index
// cursor walked beside the chain, the slab and the string its text values
// are substrings of, the reader's keyed hasher, record-image buffer and
// decode scratch. On a multi-shard table a merge iterator stitches one
// Scanner per shard (merge.go); each Scanner's conditions cover its shard
// and the merge checks the stitch points.
type Scanner struct {
	sh    *shard
	chain int
	seq   uint64
	start record.Key
	end   record.Key

	rd reader
	// cur is the record fetched but not yet looked at: the scan reads one
	// record ahead of what it has emitted. It is rd's own record, or, when
	// shared, a history image that every snapshot reader in its range reads.
	cur    *record.Record
	shared bool
	// want is the encoded nKey of the record looked at last, while the step
	// to it is outstanding (cur == nil): where the index cursor stands and
	// what condition (3) demands of the next record. from is Ascend's copy.
	want, from []byte
	// key is the chain key of the row emitted last, in the scanner's own
	// bytes, for the merge.
	key record.Key
	one *RowBatch // nextKeyed's one-row batch

	// The fill's slab: the values its tuples are cut from, and the builder
	// their text is appended to. Each fill starts a new slab sized for as
	// many rows as the previous fill emitted and, when it runs out, moves
	// to one twice as large. A slab is never reused, so a row a consumer
	// keeps never aliases a later one.
	vals        []record.Value
	text        strings.Builder
	slabRows    int // rows the next slab holds
	rows, textN int // rows emitted and text bytes used by the current fill

	closed  bool
	err     error
	visited int
}

// newScan opens a verified scan of the given chain of this shard over
// bounds as of seq. On a verification failure the returned scanner is
// already closed and carries the error. While no writer has committed
// above seq the scan issues exactly the protected reads of a
// latest-version chain walk (one fetch for the entry point, then one per
// step), so the verification traffic — and with it the resident RSWS
// digest — does not depend on versioning.
func (sh *shard) newScan(chain int, bounds ScanBounds, seq uint64) (*Scanner, error) {
	s := &Scanner{sh: sh, chain: chain, seq: seq, start: record.Bottom(), end: record.Top(), rd: sh.newReader()}
	if bounds.Start != nil {
		s.start = *bounds.Start
	}
	if bounds.End != nil {
		s.end = *bounds.End
	}
	// The chain entry point: the record with the greatest key ≤ start.
	sh.mu.RLock()
	var err error
	s.cur, s.shared, err = sh.entryAtLocked(&s.rd, chain, s.start, seq)
	sh.mu.RUnlock()
	if err == nil {
		var l record.ChainLink
		if l, err = chainLink(s.cur, chain); err == nil && l.Key.Compare(s.start) > 0 {
			err = fmt.Errorf("%w: first record key %v exceeds scan start %v (condition 1)", ErrVerifyFailed, l.Key, s.start)
		}
	}
	if err != nil {
		s.fail(err)
	}
	return s, s.err
}

func (s *Scanner) fail(err error) {
	s.err = err
	s.Close()
}

// Close ends the scan and hands its hasher back. No latch is held between
// fills, so there is nothing else to release. Safe to call repeatedly;
// exhausting the scan closes it implicitly.
func (s *Scanner) Close() {
	s.closed = true
	s.rd.close()
}

// Err returns the verification error that ended the scan, if any.
func (s *Scanner) Err() error { return s.err }

// Visited returns how many chain records the scan has read (including
// sentinels and out-of-range boundary records) — the verification
// overhead metric.
func (s *Scanner) Visited() int { return s.visited }

// Next returns the next in-range tuple. ok is false when the scan is
// complete or failed; check Err.
func (s *Scanner) Next() (record.Tuple, bool, error) {
	tup, _, ok, err := s.nextKeyed(nil)
	return tup, ok, err
}

// nextKeyed is Next, with the columns cols lists (nil: all), plus the
// emitted record's chain key — the merge order key the cross-shard stitch
// needs (merge.go). The key's bytes are the scanner's and good until its
// next call.
func (s *Scanner) nextKeyed(cols []int) (record.Tuple, record.Key, bool, error) {
	if s.one == nil {
		s.one = NewRowBatch(1)
	}
	s.one.Cols = cols
	n, err := s.NextBatch(s.one)
	if n == 0 {
		return nil, record.Key{}, false, err
	}
	return s.one.Rows[0], s.key, true, nil
}

// NextBatch fills dst with up to cap(dst.Rows) verified in-range tuples,
// holding the columns dst.Cols lists, under one hold of the shard's shared
// latch. The chain walk and its four conditions are checked on every
// record; the batch amortises everything else. Returns (0, nil) once the
// scan is exhausted.
func (s *Scanner) NextBatch(dst *RowBatch) (int, error) {
	dst.Reset()
	if s.closed {
		return 0, s.err
	}
	s.slabRows = max(s.rows, 1)
	s.vals, s.rows = nil, 0
	s.text.Reset()
	s.text.Grow(s.textN)
	s.sh.mu.RLock()
	// Stop with the batch full and the next record fetched: the scan reads
	// one record ahead of what it has emitted, at every capacity.
	for !s.closed && (s.cur == nil || dst.N < len(dst.Rows)) {
		if s.cur != nil {
			s.look(dst)
			continue
		}
		// One index cursor walks beside the chain for as long as the index
		// agrees with it, each entry being the next step. The index is
		// untrusted: an entry is taken only if it is filed under the key
		// the chain asks for, and the record it leads to must carry that
		// key. Ascend keeps from, and look rewrites want as the walk goes.
		s.from = append(s.from[:0], s.want...)
		s.sh.chains[s.chain].Ascend(s.from, func(key []byte, loc index.Loc) bool {
			if !bytes.Equal(key, s.want) || !s.sh.liveVisibleLocked(s.chain, key, s.seq) {
				return false
			}
			rec, err := s.rd.fetchKeyed(loc, s.chain, normalKey(key))
			if err != nil {
				s.fail(err)
				return false
			}
			s.cur, s.shared = rec, false
			if dst.N == len(dst.Rows) {
				return false
			}
			s.look(dst)
			return !s.closed
		})
		if s.cur == nil && !s.closed {
			s.step()
		}
	}
	s.sh.mu.RUnlock()
	s.textN = s.text.Len()
	if s.err != nil {
		dst.Reset()
	}
	return dst.N, s.err
}

// normalKey reads an encoded data-row chain key back without copying it.
func normalKey(enc []byte) record.Key { return record.Key{Kind: record.KindNormal, B: enc[1:]} }

// look examines cur: emits its tuple into dst (which has room) when it is
// an in-range data row, then either ends the scan or leaves the step to its
// nKey outstanding in want.
func (s *Scanner) look(dst *RowBatch) {
	l, err := chainLink(s.cur, s.chain)
	if err != nil {
		s.fail(err)
		return
	}
	s.visited++
	// No tuple is built for a boundary record; a sentinel has none.
	if l.Key.Compare(s.start) >= 0 && l.Key.Compare(s.end) <= 0 && !s.rd.sentinel(s.cur, s.shared) {
		if err := s.emit(dst); err != nil {
			s.fail(err)
			return
		}
		s.key = record.Key{Kind: l.Key.Kind, B: append(s.key.B[:0], l.Key.B...)}
	}
	s.cur = nil
	// Condition (2): once this record's nKey exceeds the range end, the
	// record itself is the completeness witness for the top of the range;
	// advance no further.
	if l.NKey.Compare(s.end) > 0 || l.NKey.Kind == record.KindTop {
		s.Close()
		return
	}
	s.want = l.NKey.AppendEncode(s.want[:0])
}

// emit appends cur's tuple, holding the columns dst.Cols lists, to dst.
// The tuple is capped at its own width, so appending to it cannot write
// into its neighbour in the slab; a zero-width tuple is empty, not nil.
func (s *Scanner) emit(dst *RowBatch) error {
	cols := s.rd.columns(s.cur, s.shared, dst.Cols)
	w := len(cols)
	if s.vals == nil || cap(s.vals)-len(s.vals) < w {
		s.vals = make([]record.Value, 0, s.slabRows*w)
		s.slabRows *= 2
	}
	n := len(s.vals)
	tup := s.vals[n : n+w : n+w]
	if err := s.rd.tuple(s.cur, s.shared, cols, tup, &s.text); err != nil {
		return err
	}
	s.vals = s.vals[:n+w]
	dst.Rows[dst.N] = tup
	dst.N++
	s.rows++
	return nil
}

// step resolves want the long way, when the index cursor and the chain
// part: the key's live version is not the one visible at the snapshot, or
// the key is not in the live index where the chain says it is (retired
// since the snapshot, or an index the host tampered with). The committed
// chain at the snapshot seq links only keys visible at that seq, so a key
// that resolves to nothing is a verification failure, not a benign race.
func (s *Scanner) step() {
	k := normalKey(s.want)
	rec, shared, err := s.sh.versionAtLocked(&s.rd, s.chain, k, s.want, s.seq)
	if rec == nil && err == nil {
		err = fmt.Errorf("%w: chain %d broken at snapshot %d: no visible record for nKey %v (condition 3)",
			ErrVerifyFailed, s.chain, s.seq, k)
	}
	if err != nil {
		s.fail(err)
		return
	}
	s.cur, s.shared = rec, shared
}

// snapClosingIter wraps an Iterator with a Snapshot the iterator owns:
// closing the iterator (or exhausting it via a failed Next) releases the
// snapshot pin, so implicit per-scan snapshots cannot leak and stall GC.
type snapClosingIter struct {
	Iterator
	snap   *Snapshot
	closed bool
}

func (c *snapClosingIter) Close() {
	c.Iterator.Close()
	if !c.closed {
		c.closed = true
		c.snap.Close()
	}
}
