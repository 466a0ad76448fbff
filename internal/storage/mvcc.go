package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"veridb/internal/govern"
	"veridb/internal/index"
	"veridb/internal/record"
)

// Multi-version concurrency control. Every shard mutation retires the
// record's pre-image into a per-shard version list kept in *trusted enclave
// heap* — never in the write-read consistent memory — so versioning leaves
// the resident RSWS digest bit-identical to the single-version layout
// (pinned by the golden-checksum tests). The live record in vmem is always
// the latest committed version; a retired version{begin, end, rec} says
// "between commit seq begin (inclusive) and end (exclusive), the record
// looked like rec". Readers pin a Snapshot at the commit watermark and
// resolve every chain step as of that sequence, which lets scanners hold
// the shard latch for one batch fill at a time instead of the scan's life.
//
// Trust argument: retired versions are captured from records that were just
// fetched through the protected vmem interfaces (and therefore verified),
// and the version lists live inside the enclave's trusted memory, so
// re-reading them needs no re-verification. The current version keeps the
// full §5.2 fetch-and-check discipline on every access.

// commitClock issues commit sequence numbers and tracks which prefix of
// them has fully applied (the watermark) plus the snapshot pins that hold
// old versions alive. Its state is two ordered slices, so a commit costs
// what it covers, never what the clock once held: an end walks the window
// only up to the first commit still in flight, and the pins' floor is the
// first pin.
type commitClock struct {
	mu   sync.Mutex
	next uint64
	// window holds every issued seq above the watermark, in order:
	// window[i] is seq mark+1+i. A completed commit's eff may lie above its
	// seq when its writes conflicted with an in-flight later commit (see
	// mvOp), so the watermark must not rest inside any commit's [seq, eff)
	// window or a snapshot pinned there would see the commit half-applied.
	window []issued
	// pins are the snapshot read points held, in seq order. A pin is
	// always taken at the watermark, which never decreases, so a new one
	// extends the last entry or follows it.
	pins []pinned
	// mark is the watermark: the largest W with every seq ≤ W completed
	// AND wholly visible (effective timestamp ≤ W).
	// floorV is min(mark, oldest pin): versions whose range ends at or
	// below it can never be read again and are reclaimable.
	mark   atomic.Uint64
	floorV atomic.Uint64
}

// issued is one commit above the watermark: whether it has ended, and if
// so its final effective timestamp.
type issued struct {
	done bool
	eff  uint64
}

// pinned is one snapshot read point and how many snapshots hold it.
type pinned struct {
	seq   uint64
	count int
}

// begin issues the next commit sequence; the caller must end it (success
// or failure) or the watermark stalls forever.
func (c *commitClock) begin() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	c.window = append(c.window, issued{})
	return c.next
}

// end marks seq complete with final effective timestamp eff and advances
// the watermark to the largest W where every seq ≤ W is both completed and
// wholly visible (eff ≤ W). Every eff is bounded by the largest issued
// seq, so once all in-flight commits complete the watermark reaches next.
func (c *commitClock) end(seq, eff uint64) {
	c.mu.Lock()
	m := c.mark.Load()
	c.window[seq-m-1] = issued{done: true, eff: eff}
	best := m
	runMax := m
	for i, w := range c.window {
		if !w.done {
			break
		}
		u := m + 1 + uint64(i)
		runMax = max(runMax, w.eff)
		if runMax <= u {
			best = u
		}
	}
	// Shift the window down rather than reslice it, so its backing array
	// keeps its capacity and begin appends without allocating.
	if best > m {
		c.window = c.window[:copy(c.window, c.window[best-m:])]
	}
	c.mark.Store(best)
	c.recomputeFloorLocked()
	c.mu.Unlock()
}

// pin pins the current watermark as a snapshot read point.
func (c *commitClock) pin() uint64 {
	c.mu.Lock()
	s := c.mark.Load()
	if n := len(c.pins); n > 0 && c.pins[n-1].seq == s {
		c.pins[n-1].count++
	} else {
		c.pins = append(c.pins, pinned{seq: s, count: 1})
	}
	c.recomputeFloorLocked()
	c.mu.Unlock()
	return s
}

func (c *commitClock) unpin(seq uint64) {
	c.mu.Lock()
	i, found := slices.BinarySearchFunc(c.pins, seq, func(p pinned, s uint64) int { return cmp.Compare(p.seq, s) })
	switch {
	case !found:
	case c.pins[i].count > 1:
		c.pins[i].count--
	default:
		c.pins = slices.Delete(c.pins, i, i+1)
	}
	c.recomputeFloorLocked()
	c.mu.Unlock()
}

func (c *commitClock) recomputeFloorLocked() {
	f := c.mark.Load()
	if len(c.pins) > 0 {
		f = min(f, c.pins[0].seq)
	}
	c.floorV.Store(f)
}

// watermark returns the largest seq with every seq ≤ it completed.
func (c *commitClock) watermark() uint64 { return c.mark.Load() }

// pinCount reports how many snapshot pins are currently held.
func (c *commitClock) pinCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.pins {
		n += p.count
	}
	return n
}

// floor returns the reclamation floor: no live or future snapshot can read
// below it.
func (c *commitClock) floor() uint64 { return c.floorV.Load() }

// Commit is one issued commit timestamp. Done (idempotent) completes it;
// an uncompleted Commit stalls the watermark, so callers must defer Done.
type Commit struct {
	s    *Store
	seq  uint64
	done atomic.Bool
	// eff is the commit's final effective timestamp: the max of seq and
	// every effective timestamp its shard operations actually landed at
	// (conflicts with in-flight later commits can raise an operation above
	// its issued seq; see mvOp). Done reports it to the clock so the
	// watermark never rests inside this commit's [seq, eff) window.
	eff atomic.Uint64
}

// Seq returns the commit sequence number.
func (c *Commit) Seq() uint64 { return c.seq }

// noteEff raises the commit's effective timestamp to e (CAS-max). Called
// by mvOp.finish for every shard operation run under this commit.
func (c *Commit) noteEff(e uint64) {
	for {
		cur := c.eff.Load()
		if e <= cur || c.eff.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Done marks the commit complete (success or failure — the seq is spent
// either way) and lets the watermark advance past it. All writes under
// this commit must have returned before Done is called. Done on a nil
// Commit does nothing.
func (c *Commit) Done() {
	if c != nil && c.done.CompareAndSwap(false, true) {
		c.s.clock.end(c.seq, c.eff.Load())
	}
}

// BeginCommit issues a commit timestamp for a batch of DML that should
// become visible atomically to snapshot readers: versions installed with
// this seq stay above every snapshot pinned before Done.
func (s *Store) BeginCommit() *Commit {
	c := &Commit{s: s, seq: s.clock.begin()}
	c.eff.Store(c.seq)
	return c
}

// Snapshot is a pinned, consistent read point: the commit watermark at
// open plus the catalog version. Scans and point reads resolved against it
// see exactly the rows committed at or below Seq, regardless of concurrent
// writers. Close releases the pin (idempotent); an unclosed Snapshot keeps
// old versions alive forever.
type Snapshot struct {
	s   *Store
	seq uint64
	cat uint64

	mu     sync.Mutex
	closed bool
}

// OpenSnapshot pins the current commit watermark.
func (s *Store) OpenSnapshot() *Snapshot {
	return &Snapshot{s: s, seq: s.clock.pin(), cat: s.version.Load()}
}

// Seq returns the snapshot's pinned commit sequence.
func (sn *Snapshot) Seq() uint64 { return sn.seq }

// CatalogVersion returns the catalog version at pin time.
func (sn *Snapshot) CatalogVersion() uint64 { return sn.cat }

// Close releases the pin. Idempotent.
func (sn *Snapshot) Close() {
	sn.mu.Lock()
	closed := sn.closed
	sn.closed = true
	sn.mu.Unlock()
	if !closed {
		sn.s.clock.unpin(sn.seq)
	}
}

// Watermark returns the commit watermark: what a Snapshot opened now would
// pin.
func (s *Store) Watermark() uint64 { return s.clock.watermark() }

// SnapshotPins reports how many snapshot pins are currently held across
// all readers — the overload bench's post-drain leak check.
func (s *Store) SnapshotPins() int { return s.clock.pinCount() }

// SetBudget points the store at the process memory budget. Retired MVCC
// version images are charged to it when captured and released when
// reclaimed, so long version chains (held open by pinned snapshots) show
// up as memory pressure instead of silent heap growth. nil detaches.
func (s *Store) SetBudget(b *govern.Budget) { s.budget.Store(b) }

// versionBytes estimates the trusted-heap footprint of one retired record
// image: the record struct, its chain links, and the tuple payload. The
// estimate is a pure function of the (immutable) image, so the release at
// reclamation always matches the charge at capture.
func versionBytes(rec *record.Record) int64 {
	// Record struct + version bookkeeping ≈ 64 bytes; each ChainLink holds
	// two Keys (two small structs with a byte-slice payload each).
	n := int64(64)
	for _, l := range rec.Links {
		n += 96 + int64(len(l.Key.B)+len(l.NKey.B))
	}
	return n + record.TupleBytes(rec.Data)
}

// version is one retired record image: the record looked like rec for
// commit seqs in [begin, end).
type version struct {
	begin, end uint64
	rec        *record.Record
}

// shardVersions is a shard's MVCC side-state, all of it in trusted enclave
// heap (maps and B-trees of encoded keys — no vmem pages, so the resident
// digest never sees it). Guarded by the shard latch.
type shardVersions struct {
	// cur[i] maps a chain-i encoded key to the live record's begin seq;
	// absent means "visible since forever" (seq 0) — the common case for
	// cold rows, kept small by reclaim dropping entries at or below the
	// floor.
	cur []map[string]uint64
	// hist[i] maps a chain-i encoded key to its retired versions, oldest
	// first with contiguous [begin, end) ranges.
	hist []map[string][]version
	// histKeys[i] indexes the keys of hist[i] so as-of seeks can find keys
	// that no longer exist in the live chain (Loc values are unused).
	histKeys []*index.BTree
	retained int
	// queue lists, in latch order, every key an operation touched and the
	// effective timestamp it landed at — the end of the version it
	// retired and the begin seq it installed. reclaim pops it from
	// queue[head], so each retirement is revisited once, by a later writer.
	queue []retiredAt
	head  int
	// newest is the largest effective timestamp any operation on the shard
	// has committed at. Every begin seq in cur and every end in hist is at
	// or below it, so a snapshot at or above it sees the live chain as it
	// is and needs neither map.
	newest uint64
}

// retiredAt names one key an operation touched at effective timestamp at.
type retiredAt struct {
	chain int
	key   string
	at    uint64
}

func newShardVersions(chains int) *shardVersions {
	mv := &shardVersions{
		cur:      make([]map[string]uint64, chains),
		hist:     make([]map[string][]version, chains),
		histKeys: make([]*index.BTree, chains),
	}
	for i := 0; i < chains; i++ {
		mv.cur[i] = make(map[string]uint64)
		mv.hist[i] = make(map[string][]version)
		mv.histKeys[i] = index.New()
	}
	return mv
}

// mvOp accumulates one shard operation's version effects — pre-images to
// retire, live entries to install or remove — and commits them in finish
// with a single effective timestamp covering every record the operation
// touched. One timestamp per operation is what keeps chains consistent
// under seq/latch-order inversion: commit seqs are issued before writes
// apply, so a later-seq commit can physically precede an earlier-seq one.
// Clamping each touched key independently can then tear one mutation apart
// (a delete's victim retired at its own seq, its predecessor's relink
// clamped past an in-flight commit — a snapshot between the two sees a
// chain link pointing at a key with no visible version). With a single
// eff = max(seq, every touched key's version frontier), an operation is
// visible to a snapshot either whole or not at all, and the visible state
// at any seq S is exactly the shard's physical state after the latch-order
// prefix of operations with eff ≤ S: any operation depending on a skipped
// one's output must share a touched record with it, which forces its eff
// above S too.
//
// A commit spanning several shard operations can still land its
// operations at different effective timestamps when only some of them
// conflict with an in-flight later commit. finish therefore reports each
// operation's eff back to the Commit, and the clock's watermark only
// rests at points where every included commit is wholly visible — so a
// snapshot can never pin inside any commit's [seq, eff) window.
//
// Each shard owns one mvOp and reuses it for every operation: mvBegin
// hands it out under the shard write latch, and finish, which empties it,
// runs before that latch is released, so no second operation on the shard
// can see it half full. An operation touches a handful of keys (every
// chain key of each record it retires or installs: six for an insert into
// a two-chain table), so they sit in a slice searched linearly, and each
// key is encoded to its string once, when it is first touched: that
// string is what the version maps and the reclaim queue keep.
type mvOp struct {
	sh  *shard
	c   *Commit
	seq uint64
	// touched holds one entry per chain key the operation touched.
	touched []touchedKey
	// enc is the scratch a key is encoded into to be looked up in touched.
	enc []byte
}

// touchedKey is one chain key an operation touched: its first-captured
// pre-image, the image visible before the operation (nil when the key was
// only installed; intra-op churn such as insert's undo path retires a key
// again, and those later images were never visible and are dropped), and
// its final disposition: live after the operation, or gone from the
// chains.
type touchedKey struct {
	chain int
	key   string
	pre   *record.Record
	live  bool
}

// mvBegin opens the version transaction for one shard operation under
// commit c, which every write has (Table.commitFor). It returns the
// shard's own op, emptied by the previous finish. The caller holds the
// shard write latch until finish has run.
func (sh *shard) mvBegin(c *Commit) *mvOp {
	op := &sh.op
	op.sh, op.c, op.seq = sh, c, c.Seq()
	return op
}

// entry returns chain's entry for key k, adding it (live, no pre-image)
// on first touch. The pointer is good until the next entry call.
func (op *mvOp) entry(chain int, k record.Key) *touchedKey {
	op.enc = k.AppendEncode(op.enc[:0])
	for i := range op.touched {
		if e := &op.touched[i]; e.chain == chain && e.key == string(op.enc) {
			return e
		}
	}
	op.touched = append(op.touched, touchedKey{chain: chain, key: string(op.enc), live: true})
	return &op.touched[len(op.touched)-1]
}

// retire captures rec as the pre-image of every chain key it carries that
// has none yet. Call before mutating or unlinking the record. rec itself
// is kept, so the caller must not change it afterwards: a write builds its
// new image in a fresh Record. The record stays live unless a later unlink
// says otherwise.
func (op *mvOp) retire(rec *record.Record) {
	for i, l := range rec.Links {
		if l.Key.IsNull() {
			continue
		}
		if e := op.entry(i, l.Key); e.pre == nil {
			e.pre = rec
		}
	}
}

// install records rec as live after the operation, under every chain key
// it carries. Call after the physical mutation lands.
func (op *mvOp) install(rec *record.Record) {
	for i, l := range rec.Links {
		if !l.Key.IsNull() {
			op.entry(i, l.Key).live = true
		}
	}
}

// unlink retires rec's pre-image, as retire, and marks its live entries
// for removal (the record is leaving the chains). Call before the physical
// delete.
func (op *mvOp) unlink(rec *record.Record) {
	for i, l := range rec.Links {
		if l.Key.IsNull() {
			continue
		}
		e := op.entry(i, l.Key)
		if e.pre == nil {
			e.pre = rec
		}
		e.live = false
	}
}

// finish commits the accumulated version effects at the operation's single
// effective timestamp and empties the op for the shard's next operation.
// It must run before the shard latch is released. Empty ranges (eff equal
// to a key's current begin — intra-commit churn) append nothing.
func (op *mvOp) finish() {
	mv := op.sh.mv
	// The effective timestamp: the commit seq, raised to every touched
	// key's version frontier (live begin and retired tail) so ranges tile
	// per key and the whole operation shares one visibility boundary.
	eff := op.seq
	for _, e := range op.touched {
		if b, ok := mv.cur[e.chain][e.key]; ok && b > eff {
			eff = b
		}
		if vs := mv.hist[e.chain][e.key]; len(vs) > 0 {
			if end := vs[len(vs)-1].end; end > eff {
				eff = end
			}
		}
	}
	op.c.noteEff(eff)
	if eff > mv.newest {
		mv.newest = eff
	}
	bud := op.sh.t.store.budget.Load()
	mv.reclaim(op.sh.t.store.clock.floor(), bud)
	for _, e := range op.touched {
		cur := mv.cur[e.chain]
		if b := cur[e.key]; e.pre != nil && eff > b { // else never visible: nothing to retire
			hist := mv.hist[e.chain]
			vs := hist[e.key]
			if len(vs) == 0 {
				mv.histKeys[e.chain].Set([]byte(e.key), index.Loc{})
			}
			hist[e.key] = append(vs, version{begin: b, end: eff, rec: e.pre})
			mv.retained++
			bud.Charge(versionBytes(e.pre))
		}
		if e.live {
			cur[e.key] = eff
		} else {
			delete(cur, e.key)
		}
		mv.queue = append(mv.queue, retiredAt{chain: e.chain, key: e.key, at: eff})
	}
	clear(op.touched) // drop the pre-images and keys the version maps do not keep
	op.touched, op.c = op.touched[:0], nil
}

// reclaim pops the retirement queue while its head landed at or below
// floor — no live or future snapshot reads below it — trimming that key's
// retired versions that ended by floor and dropping its begin seq if that
// is still at or below floor (indistinguishable from the implicit 0 for
// every snapshot that can still open). Each queued entry is popped once,
// so reclamation costs O(1) amortised per write. A head above floor (a
// pinned snapshot, or an in-flight commit's operation) waits for a later
// writer. It touches only trusted heap: the resident RSWS checksum is
// unchanged by construction. The caller holds the shard write latch.
func (mv *shardVersions) reclaim(floor uint64, bud *govern.Budget) {
	q := mv.queue[mv.head:]
	n := 0
	for ; n < len(q) && q[n].at <= floor; n++ {
		e := q[n]
		vs := mv.hist[e.chain][e.key]
		k := 0
		for k < len(vs) && vs[k].end <= floor {
			bud.Release(versionBytes(vs[k].rec))
			k++
		}
		mv.retained -= k
		switch {
		case k > 0 && k == len(vs):
			delete(mv.hist[e.chain], e.key)
			mv.histKeys[e.chain].Delete([]byte(e.key))
		case k > 0:
			mv.hist[e.chain][e.key] = vs[k:]
		}
		if b, ok := mv.cur[e.chain][e.key]; ok && b <= floor {
			delete(mv.cur[e.chain], e.key)
		}
	}
	clear(q[:n])
	mv.head += n
	// Once the entries still queued are no more than those popped, shift
	// them down to the front: the backing array keeps its capacity, so
	// finish appends without allocating, and each entry is moved at most
	// once per entry popped before it.
	if rest := len(mv.queue) - mv.head; rest <= mv.head {
		copy(mv.queue, mv.queue[mv.head:])
		clear(mv.queue[rest:])
		mv.queue, mv.head = mv.queue[:rest], 0
	}
}

// liveVisibleLocked reports whether chain-i key enc, present in the live
// index, is visible at seq in its live version: from one probe of the
// begin-seq map, and from none while the shard holds no version newer than
// seq — every scan that no writer has overtaken. It needs no look at the
// history: version ranges tile, every retired version of a live key ends
// at or before the live version's begin, so a live version that began at
// or before seq is the one visible at seq.
func (sh *shard) liveVisibleLocked(chain int, enc []byte, seq uint64) bool {
	return sh.mv.newest <= seq || sh.mv.cur[chain][string(enc)] <= seq
}

// versionAtLocked resolves chain-i key k (encoded enc) as of commit seq,
// fetching through r. It returns the record image visible at seq, or nil
// when the key is absent at seq. shared marks a history image: callers must
// not mutate it and must clone what they emit. An unshared record is r's
// own and good until r's next fetch. The caller holds the shard latch (read
// or write).
func (sh *shard) versionAtLocked(r *reader, chain int, k record.Key, enc []byte, seq uint64) (rec *record.Record, shared bool, err error) {
	if mv := sh.mv; mv.newest > seq { // else every retired version ended by seq
		vs := mv.hist[chain][string(enc)]
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].begin > seq {
				continue
			}
			if seq < vs[i].end {
				return vs[i].rec, true, nil
			}
			break // ranges tile downward: older versions end even lower
		}
	}
	if loc, ok := sh.chains[chain].Get(enc); ok && sh.liveVisibleLocked(chain, enc, seq) {
		rec, err = r.fetchKeyed(loc, chain, k)
		return rec, false, err
	}
	return nil, false, nil
}

// entryAtLocked finds the as-of-seq chain entry point: the record with the
// greatest chain-i key ≤ start that is visible at seq (see versionAtLocked
// for what it returns). While the shard holds no version newer than seq —
// every read at the latest state, and every snapshot no writer has
// overtaken — the live chain is the chain at seq, and one seek of the live
// index names the candidate; the caller's chain checks judge the record
// fetched there. Otherwise it walks down over the union of the live index
// and the history-key index, skipping keys not yet visible at seq; the ⊥
// sentinel terminates the walk (its version ranges tile all the way back
// to genesis). The caller holds the shard latch.
func (sh *shard) entryAtLocked(r *reader, chain int, start record.Key, seq uint64) (*record.Record, bool, error) {
	cursor := start.Encode()
	if sh.mv.newest <= seq {
		_, loc, ok := sh.chains[chain].SeekLE(cursor)
		if !ok {
			return nil, false, fmt.Errorf("%w: chain %d has no record ≤ %v (missing ⊥ anchor)", ErrVerifyFailed, chain, start)
		}
		rec, err := r.fetch(loc)
		return rec, false, err
	}
	seek := (*index.BTree).SeekLE
	for {
		cand, _, ok := seek(sh.chains[chain], cursor)
		if histKey, _, histOK := seek(sh.mv.histKeys[chain], cursor); histOK && (!ok || string(histKey) > string(cand)) {
			cand, ok = histKey, true
		}
		if !ok {
			return nil, false, fmt.Errorf("%w: chain %d has no record ≤ %v (missing ⊥ anchor)", ErrVerifyFailed, chain, start)
		}
		k, err := record.DecodeKey(cand)
		if err != nil {
			return nil, false, fmt.Errorf("%w: undecodable chain %d key: %v", ErrVerifyFailed, chain, err)
		}
		rec, shared, err := sh.versionAtLocked(r, chain, k, cand, seq)
		if rec != nil || err != nil {
			return rec, shared, err
		}
		cursor, seek = cand, (*index.BTree).SeekLT
	}
}

// searchChainAt is the §5.2 verified index search as of seq (latest for
// the live state) under the shard's read latch: the entry record's ⟨key,
// nKey⟩ interval at seq proves presence or absence.
func (sh *shard) searchChainAt(chain int, k record.Key, seq uint64) (record.Tuple, Evidence, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.newReader()
	defer r.close()
	rec, shared, err := sh.entryAtLocked(&r, chain, k, seq)
	if err != nil {
		return nil, Evidence{}, err
	}
	return sh.witness(&r, rec, shared, chain, k)
}

// VersionStats returns, across all tables, the retained-version count and
// the live begin-seq entries — the MVCC state held in trusted heap — and
// the current reclamation floor.
func (s *Store) VersionStats() (retained, begins int, floor uint64) {
	floor = s.clock.floor()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, t := range s.tables {
		for _, sh := range t.shards {
			sh.mu.RLock()
			retained += sh.mv.retained
			for _, m := range sh.mv.cur {
				begins += len(m)
			}
			sh.mu.RUnlock()
		}
	}
	return retained, begins, floor
}
