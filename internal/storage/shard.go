package storage

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"veridb/internal/index"
	"veridb/internal/page"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

// shard is one independently latched slice of a table. Each shard owns a
// complete ⊥/⊤-anchored sub-chain per chain column, its own untrusted
// B-tree indexes, page set and fill target, so DML on different shards
// never contends on a latch. Rows are assigned to shards by hashing the
// encoded primary key (index.ShardOf); a row's secondary-chain entries
// live in the same shard as the row itself, so a shard is self-contained:
// its chains prove presence/absence for exactly the keys that route to it
// (Definition 4.2 holds per shard).
//
// The mutex serialises structural mutation (chain maintenance and the
// untrusted indexes); scanners hold it shared while they fill a batch, and
// read at a snapshot so the chain they verify is stable between fills. The
// expensive verification work (PRF folding) happens inside vmem under its
// own per-partition RSWS locks.
type shard struct {
	t  *Table
	id int
	// affinity pins this shard's pages to one RSWS partition so the shard
	// latch and the partition lock contend on the same subset of traffic
	// (§4.3). -1 means no preference (single-shard tables keep the plain
	// allocation order, bit-for-bit).
	affinity int

	mu     tableLock
	chains []*index.BTree // chains[i] indexes chain i by encoded key
	pages  []uint64
	fill   uint64 // current insertion target page
	// Pages with known reclaimable or free space: a stack in marking order,
	// so placement depends only on the writes, and its members as a set.
	spaciousOrder []uint64
	spacious      map[uint64]bool
	rows          int

	// mv holds the shard's retired record versions and live-version begin
	// seqs for MVCC snapshot reads. It lives in trusted enclave heap,
	// outside the write-read consistent memory, so versioning never
	// perturbs the resident RSWS digest. Guarded by mu.
	mv *shardVersions

	// The write paths' scratch, reused under the write latch so that a
	// write allocates only what it keeps: the version transaction (see
	// mvOp), an index probe's encoded key, the image a fetch reads, the
	// image a write encodes (vmem copies it into the page), and the links
	// of a relinked record.
	op    mvOp
	key   []byte
	img   []byte
	enc   []byte
	links []record.ChainLink
}

func newShard(t *Table, id, affinity int) (*shard, error) {
	sh := &shard{
		t:        t,
		id:       id,
		affinity: affinity,
		chains:   make([]*index.BTree, len(t.chainCols)),
		spacious: make(map[uint64]bool),
		mv:       newShardVersions(len(t.chainCols)),
	}
	for i := range sh.chains {
		sh.chains[i] = index.New()
	}
	// One sentinel record per chain: ⟨⊥, ⊤⟩ on its own chain, null links on
	// the others — two empty key chains, exactly as Fig. 6(a) initialises.
	// Every shard carries its own sentinels, so absence below the shard's
	// minimum and in an empty shard stays provable.
	for i := range sh.chains {
		links := make([]record.ChainLink, len(t.chainCols))
		for j := range links {
			links[j] = record.ChainLink{Key: record.NullKey(), NKey: record.NullKey()}
		}
		links[i] = record.ChainLink{Key: record.Bottom(), NKey: record.Top()}
		loc, err := sh.placeRecord(record.Encode(&record.Record{Links: links}))
		if err != nil {
			return nil, fmt.Errorf("storage: creating sentinel for %q shard %d chain %d: %w", t.name, id, i, err)
		}
		sh.chains[i].Set(record.Bottom().Encode(), loc)
	}
	return sh, nil
}

// spaciousSweepCap bounds how many spacious pages one placeRecord call may
// examine, from the top of the stack, while pruning re-filled pages.
const spaciousSweepCap = 32

// markSpacious records that page pid has reclaimable space.
func (sh *shard) markSpacious(pid uint64) {
	if !sh.spacious[pid] {
		sh.spacious[pid] = true
		sh.spaciousOrder = append(sh.spaciousOrder, pid)
	}
}

// placeRecord stores encoded bytes in a page with room, allocating pages as
// needed, and returns the location.
func (sh *shard) placeRecord(enc []byte) (index.Loc, error) {
	try := func(pid uint64) (index.Loc, error) {
		slot, err := sh.t.mem.Insert(pid, enc)
		if err != nil {
			return index.Loc{}, err
		}
		return index.Loc{Page: pid, Slot: slot}, nil
	}
	if sh.fill != 0 {
		if loc, err := try(sh.fill); err == nil {
			return loc, nil
		} else if !errors.Is(err, page.ErrPageFull) {
			return index.Loc{}, err
		}
	}
	// Retry a few pages known to have reclaimable space, latest marked
	// first, before growing. Pages re-filled since they were marked are
	// dropped without spending a placement attempt, so long delete/insert
	// churn does not pile up entries for full pages.
	tried, examined := 0, 0
	for i := len(sh.spaciousOrder) - 1; i >= 0 && tried < 4; i-- {
		pid := sh.spaciousOrder[i]
		if pid != sh.fill && examined >= spaciousSweepCap {
			break
		}
		// A page examined leaves: it is the fill page, too full, or tried.
		delete(sh.spacious, pid)
		sh.spaciousOrder = append(sh.spaciousOrder[:i], sh.spaciousOrder[i+1:]...)
		if pid == sh.fill {
			continue
		}
		examined++
		if info, err := sh.t.mem.Info(pid); err == nil &&
			info.ContiguousFree+info.Reclaimable < len(enc) {
			continue
		}
		loc, err := try(pid)
		if err == nil {
			sh.fill = pid
			return loc, nil
		}
		if !errors.Is(err, page.ErrPageFull) {
			return index.Loc{}, err
		}
		tried++
	}
	pid, err := sh.t.mem.NewPageIn(sh.affinity)
	if err != nil {
		return index.Loc{}, err
	}
	sh.pages = append(sh.pages, pid)
	sh.fill = pid
	return try(pid)
}

// probe encodes k into the shard's key scratch for one index probe; the
// bytes are good until the next probe. The caller holds the write latch.
func (sh *shard) probe(k record.Key) []byte {
	sh.key = k.AppendEncode(sh.key[:0])
	return sh.key
}

// fetch reads the record at loc through the protected Get, into the
// shard's image scratch, and decodes it into a record of the caller's own
// that shares no memory with the page or the scratch: the write paths
// retire it as the pre-image snapshot readers keep, unchanged, and build
// the new image in a fresh Record. The caller holds the write latch.
func (sh *shard) fetch(loc index.Loc) (*record.Record, error) {
	r := sh.t.mem.NewReader()
	img, err := r.Get(loc.Page, loc.Slot, sh.img[:0])
	r.Close()
	if err != nil {
		return nil, err
	}
	sh.img = img
	rec, err := record.Decode(img)
	if err != nil {
		return nil, undecodable(loc, err)
	}
	return rec, nil
}

func undecodable(loc index.Loc, err error) error {
	return fmt.Errorf("%w: undecodable record at (%d,%d): %v", ErrVerifyFailed, loc.Page, loc.Slot, err)
}

// reader is the read paths' fetch context, one per scan or point lookup: a
// vmem.Reader (one keyed hasher), the private image of the record fetched
// last, and the decode scratch whose chain keys alias that image. A fetched
// record is therefore good only until the next fetch, which is all a chain
// walk needs; what must outlive it (an emitted tuple, a merge key) is built
// or copied out first.
type reader struct {
	mem vmem.Reader
	img []byte
	dec record.Scratch
}

func (sh *shard) newReader() reader { return reader{mem: sh.t.mem.NewReader()} }

func (r *reader) close() { r.mem.Close() }

// fetch reads the record at loc through the protected Get into the
// reader's own buffer and parses its chain links.
func (r *reader) fetch(loc index.Loc) (*record.Record, error) {
	img, err := r.mem.Get(loc.Page, loc.Slot, r.img[:0])
	if err != nil {
		return nil, err
	}
	r.img = img
	rec, err := r.dec.Decode(img)
	if err != nil {
		return nil, undecodable(loc, err)
	}
	return rec, nil
}

// fetchKeyed fetches the record the untrusted index files under chain key k
// and checks that it really carries k — condition (3) of Example 5.1 when k
// is the predecessor's nKey.
func (r *reader) fetchKeyed(loc index.Loc, chain int, k record.Key) (*record.Record, error) {
	rec, err := r.fetch(loc)
	if err != nil {
		return nil, err
	}
	if chain >= len(rec.Links) || !rec.Links[chain].Key.Equal(k) {
		return nil, fmt.Errorf("%w: chain %d index pointed %v at a record keyed otherwise (condition 3)",
			ErrVerifyFailed, chain, k)
	}
	return rec, nil
}

// sentinel reports whether rec, the reader's own record or a shared
// history image, is a chain anchor rather than a data row.
func (r *reader) sentinel(rec *record.Record, shared bool) bool {
	if shared {
		return rec.IsSentinel()
	}
	return r.dec.Sentinel()
}

// columns returns cols, or when it is nil the list of all of rec's
// columns.
func (r *reader) columns(rec *record.Record, shared bool, cols []int) []int {
	if cols != nil {
		return cols
	}
	if shared {
		return record.AllColumns(len(rec.Data))
	}
	return record.AllColumns(r.dec.Arity())
}

// tuple builds the listed columns of data row rec into dst, which has
// len(cols) values, for handing upward: decoded from the reader's own
// image, text appended to text, or copied from a history image shared
// with every other snapshot reader, whose strings are as immutable as the
// builder's.
func (r *reader) tuple(rec *record.Record, shared bool, cols []int, dst record.Tuple, text *strings.Builder) error {
	if !shared {
		if err := r.dec.Tuple(cols, dst, text); err != nil {
			return fmt.Errorf("%w: %v", ErrVerifyFailed, err)
		}
		return nil
	}
	for i, c := range cols {
		if c >= len(rec.Data) {
			return fmt.Errorf("%w: column %d of a %d-column history image", ErrVerifyFailed, c, len(rec.Data))
		}
		dst[i] = rec.Data[c]
	}
	return nil
}

// chainLink returns rec's ⟨key, nKey⟩ on chain after the two checks every
// record a scan or a point lookup visits must pass: it participates in the
// chain, and its nKey is above its key. The second is what makes a chain
// walk terminate — with keys only required to meet end to end, a link
// rewritten to point backwards would be followed round a circle for ever.
func chainLink(rec *record.Record, chain int) (record.ChainLink, error) {
	if chain >= len(rec.Links) || rec.Links[chain].Key.IsNull() || rec.Links[chain].NKey.IsNull() {
		return record.ChainLink{}, fmt.Errorf("%w: record does not participate in chain %d", ErrVerifyFailed, chain)
	}
	l := rec.Links[chain]
	if l.NKey.Compare(l.Key) <= 0 {
		return record.ChainLink{}, fmt.Errorf("%w: chain %d does not ascend: record ⟨%v,%v⟩", ErrVerifyFailed, chain, l.Key, l.NKey)
	}
	return l, nil
}

// rewrite stores a mutated record back at loc, relocating it (and fixing
// every chain index entry) when the grown record no longer fits its page
// (§4.2: an oversized update performs a delete followed by an insert,
// possibly on a different page). The image is encoded into the shard's
// scratch, which vmem copies into the page.
func (sh *shard) rewrite(loc index.Loc, rec *record.Record) (index.Loc, error) {
	sh.enc = record.AppendEncode(sh.enc[:0], rec)
	enc := sh.enc
	err := sh.t.mem.Update(loc.Page, loc.Slot, enc)
	if err == nil {
		return loc, nil
	}
	if !errors.Is(err, page.ErrPageFull) {
		return index.Loc{}, err
	}
	newLoc, err := sh.placeRecord(enc)
	if err != nil {
		return index.Loc{}, err
	}
	if err := sh.t.mem.Delete(loc.Page, loc.Slot); err != nil {
		return index.Loc{}, err
	}
	sh.markSpacious(loc.Page)
	for i := range sh.chains {
		l := rec.Links[i]
		if l.Key.IsNull() {
			continue
		}
		sh.chains[i].Set(sh.probe(l.Key), newLoc)
	}
	return newLoc, nil
}

// relink rewrites the record rec at loc with its chain-i nKey set to nk.
// rec, a retired pre-image, stays as it is: the new image is built from
// the shard's links scratch.
func (sh *shard) relink(loc index.Loc, rec *record.Record, i int, nk record.Key) error {
	sh.links = append(sh.links[:0], rec.Links...)
	sh.links[i].NKey = nk
	_, err := sh.rewrite(loc, &record.Record{Links: sh.links, Data: rec.Data})
	return err
}

// setPredNKey updates the chain-i predecessor of key so that its nKey
// becomes nk. The predecessor is located through the untrusted index and
// its identity verified against the chain (pred.key < key ≤ pred's old
// nKey would have held before the mutation this call is part of). The
// predecessor's pre-image is retired into op so snapshot readers keep
// seeing the old link.
func (sh *shard) setPredNKey(op *mvOp, i int, key record.Key, nk record.Key) error {
	_, loc, ok := sh.chains[i].SeekLT(sh.probe(key))
	if !ok {
		return fmt.Errorf("%w: chain %d has no predecessor for %v", ErrVerifyFailed, i, key)
	}
	rec, err := sh.fetch(loc)
	if err != nil {
		return err
	}
	if len(rec.Links) != len(sh.chains) || rec.Links[i].Key.IsNull() {
		return fmt.Errorf("%w: chain %d predecessor of %v does not participate", ErrVerifyFailed, i, key)
	}
	if rec.Links[i].Key.Compare(key) >= 0 {
		return fmt.Errorf("%w: chain %d predecessor %v not below %v", ErrVerifyFailed, i, rec.Links[i].Key, key)
	}
	op.retire(rec)
	if err := sh.relink(loc, rec, i, nk); err != nil {
		return err
	}
	op.install(rec)
	return nil
}

// insert adds a tuple whose primary key routes to this shard, maintaining
// every chain (§4.2 Insert: "identifies the record whose primary key right
// precedes the current one, and updates its nKey").
func (sh *shard) insert(tup record.Tuple, pk record.Key, c *Commit) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	op := sh.mvBegin(c)
	defer op.finish()
	return sh.insertLocked(tup, pk, op)
}

func (sh *shard) insertLocked(tup record.Tuple, pk record.Key, op *mvOp) error {
	t := sh.t
	// One pass per chain: fetch the predecessor once, capture its current
	// nKey (the new record's successor) and relink it to the new key —
	// §4.2's "identifies the record whose primary key right precedes the
	// current one, and updates its nKey", paid as one verifiable read plus
	// one verifiable write per chain. Re-seeking per chain keeps this
	// correct when several chains share one predecessor record.
	var stack [4]chainInsert // a table of up to four chains needs no heap
	ins := stack[:0]
	if n := len(sh.chains); n > len(stack) {
		ins = make([]chainInsert, 0, n)
	}
	undo := func() {
		// Restore predecessors updated so far (failure of a later step).
		// The op records only first pre-images and final dispositions, so
		// the relink-then-restore churn never reaches the version lists and
		// snapshot readers stay consistent.
		for i, c := range ins {
			if c.present {
				_ = sh.setPredNKey(op, i, c.key, c.succ)
			}
		}
	}
	for i := range sh.chains {
		k, ok, err := t.chainKey(i, tup, pk)
		if err != nil {
			undo()
			return err
		}
		if !ok {
			ins = append(ins, chainInsert{})
			continue
		}
		pKey, pLoc, found := sh.chains[i].SeekLE(sh.probe(k))
		if !found {
			undo()
			return fmt.Errorf("%w: chain %d missing ⊥ anchor", ErrVerifyFailed, i)
		}
		pRec, err := sh.fetch(pLoc)
		if err != nil {
			undo()
			return err
		}
		if i == 0 && pRec.Links[0].Key.Equal(k) {
			undo()
			return fmt.Errorf("%w: %v in table %q", ErrDuplicateKey, tup[t.chainCols[0]], t.name)
		}
		if pRec.Links[i].Key.IsNull() {
			undo()
			return fmt.Errorf("%w: chain %d anchor at %x does not participate", ErrVerifyFailed, i, pKey)
		}
		succ := pRec.Links[i].NKey
		op.retire(pRec)
		if err := sh.relink(pLoc, pRec, i, k); err != nil {
			undo()
			return err
		}
		op.install(pRec)
		ins = append(ins, chainInsert{key: k, succ: succ, present: true})
	}

	var linkStack [4]record.ChainLink
	links := linkStack[:0]
	for _, c := range ins {
		if c.present {
			links = append(links, record.ChainLink{Key: c.key, NKey: c.succ})
		} else {
			links = append(links, record.ChainLink{Key: record.NullKey(), NKey: record.NullKey()})
		}
	}
	newRec := record.Record{Links: links, Data: tup}
	sh.enc = record.AppendEncode(sh.enc[:0], &newRec)
	loc, err := sh.placeRecord(sh.enc)
	if err != nil {
		undo()
		return err
	}
	for i, c := range ins {
		if c.present {
			sh.chains[i].Set(sh.probe(c.key), loc)
		}
	}
	op.install(&newRec)
	sh.rows++
	return nil
}

// chainInsert is what an insert learned of one chain: the new record's key
// on it and its successor there, or that the record does not participate.
type chainInsert struct {
	key, succ record.Key
	present   bool
}

func (sh *shard) delete(pk record.Key, c *Commit) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	op := sh.mvBegin(c)
	defer op.finish()
	return sh.deleteLocked(pk, op)
}

func (sh *shard) deleteLocked(pk record.Key, op *mvOp) error {
	loc, ok := sh.chains[0].Get(sh.probe(pk))
	if !ok {
		return fmt.Errorf("%w: primary key %v in %q", ErrNotFound, pk, sh.t.name)
	}
	rec, err := sh.fetch(loc)
	if err != nil {
		return err
	}
	if !rec.Links[0].Key.Equal(pk) {
		return fmt.Errorf("%w: index pointed %v at record keyed %v", ErrVerifyFailed, pk, rec.Links[0].Key)
	}
	// Retire the record's pre-image and drop its live-version entries: the
	// row stays readable below the op's effective seq through the version
	// history even after the physical record is gone.
	op.unlink(rec)
	// Unlink from every chain the record participates in.
	for i := range sh.chains {
		l := rec.Links[i]
		if l.Key.IsNull() {
			continue
		}
		if err := sh.setPredNKey(op, i, l.Key, l.NKey); err != nil {
			return err
		}
	}
	// The predecessor rewrites may have relocated this record; re-resolve.
	loc, ok = sh.chains[0].Get(sh.probe(pk))
	if !ok {
		return fmt.Errorf("%w: record vanished during delete", ErrVerifyFailed)
	}
	for i := range sh.chains {
		if l := rec.Links[i]; !l.Key.IsNull() {
			sh.chains[i].Delete(sh.probe(l.Key))
		}
	}
	if err := sh.t.mem.Delete(loc.Page, loc.Slot); err != nil {
		return err
	}
	sh.markSpacious(loc.Page)
	sh.rows--
	return nil
}

// updateFunc is the read-modify-write primitive, run entirely under this
// shard's write latch. Chain-key columns must not change.
func (sh *shard) updateFunc(pkVal record.Value, pk record.Key, mutate func(record.Tuple) (record.Tuple, error), c *Commit) error {
	t := sh.t
	sh.mu.Lock()
	defer sh.mu.Unlock()
	loc, ok := sh.chains[0].Get(sh.probe(pk))
	if !ok {
		return fmt.Errorf("%w: primary key %v in %q", ErrNotFound, pkVal, t.name)
	}
	rec, err := sh.fetch(loc)
	if err != nil {
		return err
	}
	// rec is retired as it is, so mutate gets the one copy of its data
	// the write makes.
	newTup, err := mutate(rec.Data.Clone())
	if err != nil {
		return err
	}
	if err := t.schema.Validate(newTup); err != nil {
		return err
	}
	newTup = t.schema.Coerce(newTup)
	if i, err := sh.changedChain(rec, newTup); err != nil {
		return err
	} else if i >= 0 {
		return fmt.Errorf("storage: UpdateFuncAt on %q changed chain column %q",
			t.name, t.schema.Columns[t.chainCols[i]].Name)
	}
	op := sh.mvBegin(c)
	defer op.finish()
	op.retire(rec)
	if _, err = sh.rewrite(loc, &record.Record{Links: rec.Links, Data: newTup}); err != nil {
		return err
	}
	op.install(rec)
	return nil
}

// update replaces the row keyed pk by newTup, which keeps the primary key,
// under one hold of the shard latch: in place when no secondary chain key
// changes either (§4.2 Update: "there is no need to update the key
// chain"), otherwise by deleting the row and re-inserting it as one
// version transition.
func (sh *shard) update(pkVal record.Value, pk record.Key, newTup record.Tuple, c *Commit) error {
	t := sh.t
	sh.mu.Lock()
	defer sh.mu.Unlock()
	loc, ok := sh.chains[0].Get(sh.probe(pk))
	if !ok {
		return fmt.Errorf("%w: primary key %v in %q", ErrNotFound, pkVal, t.name)
	}
	rec, err := sh.fetch(loc)
	if err != nil {
		return err
	}
	changed, err := sh.changedChain(rec, newTup)
	if err != nil {
		return err
	}
	op := sh.mvBegin(c)
	defer op.finish()
	if changed < 0 {
		op.retire(rec)
		if _, err = sh.rewrite(loc, &record.Record{Links: rec.Links, Data: newTup}); err != nil {
			return err
		}
		op.install(rec)
		return nil
	}
	// A secondary chain key changed: delete + insert, possibly on a
	// different page.
	if err := sh.deleteLocked(pk, op); err != nil {
		return err
	}
	if err := sh.insertLocked(newTup, pk, op); err != nil {
		return fmt.Errorf("storage: update of %v lost its row on re-insert: %w", pkVal, err)
	}
	return nil
}

// changedChain returns the first chain on which newTup's key differs from
// rec's, or -1 when newTup keeps every chain key. It compares the key
// bytes of the chain columns' old and new values through the shard's key
// scratch, allocating nothing. The caller holds the write latch.
func (sh *shard) changedChain(rec *record.Record, newTup record.Tuple) (int, error) {
	for i, col := range sh.t.chainCols {
		old, v := rec.Data[col], newTup[col]
		if old.IsNull() || v.IsNull() {
			if old.IsNull() != v.IsNull() {
				return i, nil
			}
			continue
		}
		var err error
		if sh.key, err = record.AppendKeyOf(sh.key[:0], old); err != nil {
			return 0, err
		}
		n := len(sh.key)
		if sh.key, err = record.AppendKeyOf(sh.key, v); err != nil {
			return 0, err
		}
		if !bytes.Equal(sh.key[:n], sh.key[n:]) {
			return i, nil
		}
	}
	return -1, nil
}

// witness turns the candidate record of an index search into its verdict:
// the record's ⟨key, nKey⟩ interval must prove the probe present or absent.
// The evidence keys alias rec's image, which a point lookup's reader never
// overwrites (it is closed after this) and a history image never changes.
func (sh *shard) witness(r *reader, rec *record.Record, shared bool, chain int, k record.Key) (record.Tuple, Evidence, error) {
	l, err := chainLink(rec, chain)
	if err != nil {
		return nil, Evidence{}, err
	}
	ev := Evidence{Table: sh.t.name, Chain: chain, Key: l.Key, NKey: l.NKey}
	switch {
	case l.Key.Equal(k):
		// Condition (1): the record itself proves presence.
		ev.Found = true
		if r.sentinel(rec, shared) {
			return nil, ev, nil
		}
		cols := r.columns(rec, shared, nil)
		tup := make(record.Tuple, len(cols))
		var text strings.Builder
		if err := r.tuple(rec, shared, cols, tup, &text); err != nil {
			return nil, Evidence{}, err
		}
		return tup, ev, nil
	case l.Key.Compare(k) < 0 && k.Compare(l.NKey) < 0:
		// Condition (2): key < probe < nKey proves absence.
		return nil, ev, nil
	default:
		// The untrusted index returned a tampered (page, index) pair.
		return nil, Evidence{}, fmt.Errorf("%w: record ⟨%v,%v⟩ does not witness probe %v on chain %d",
			ErrVerifyFailed, l.Key, l.NKey, k, chain)
	}
}
