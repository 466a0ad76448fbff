package vmem

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"veridb/internal/page"
	"veridb/internal/sethash"
)

// metaSnapshot captures a page's metadata cells (header + line pointers)
// before a mutating operation. Folding the before/after difference into the
// read/write sets keeps metadata verification correct even when the slotted
// page compacts internally and relocates many records at once.
type metaSnapshot struct {
	// img is one copy of the page's leading bytes: the header, then the
	// line pointer of every slot in the directory.
	img []byte
}

// snapshotMeta copies the page's metadata cells in one allocation. The
// directory is bounded by what the page can hold, so a slot count past it
// copies no byte beyond the buffer. vp.mu must be held.
func (vp *vPage) snapshotMeta() metaSnapshot {
	buf := vp.p.RawBuffer()
	n := min(vp.p.SlotCount(), (len(buf)-page.HeaderSize)/page.SlotSize)
	return metaSnapshot{img: append([]byte(nil), buf[:page.HeaderSize+n*page.SlotSize]...)}
}

// ptr returns the copied line pointer of slot i, nil beyond the directory.
func (s metaSnapshot) ptr(i int) []byte {
	b := page.HeaderSize + i*page.SlotSize
	if b+page.SlotSize > len(s.img) {
		return nil
	}
	return s.img[b : b+page.SlotSize]
}

// ptrLive reports whether a line-pointer image references a record (offset
// zero marks dead and never-used slots).
func ptrLive(ptr []byte) bool {
	return len(ptr) >= 4 && binary.LittleEndian.Uint32(ptr) != 0
}

// foldMetaDiff records every metadata-cell transition between snap and the
// page's current state. A pointer cell is a member of the verified set
// while its slot is live; the header cell is always a member. Callers must
// hold vp.mu and part.mu and pass the accumulators chosen by epochSets.
func (m *Memory) foldMetaDiff(vp *vPage, snap metaSnapshot, rs, ws *sethash.Accumulator) {
	oldHdr, newHdr := snap.img[:page.HeaderSize], vp.headerBytes()
	if !bytes.Equal(oldHdr, newHdr) {
		hr := m.prf(HeaderAddr(vp.id), vp.hver, oldHdr)
		rs.AddDigest(&hr)
		vp.hver++
		hw := m.prf(HeaderAddr(vp.id), vp.hver, newHdr)
		ws.AddDigest(&hw)
	}
	n := max(vp.p.SlotCount(), (len(snap.img)-page.HeaderSize)/page.SlotSize)
	for s := 0; s < n; s++ {
		oldPtr := snap.ptr(s)
		newPtr := vp.p.SlotPointerBytes(s) // nil beyond the directory
		oldLive, newLive := ptrLive(oldPtr), ptrLive(newPtr)
		if !oldLive && !newLive {
			continue
		}
		vp.ensureVers(s)
		switch {
		case oldLive && !newLive: // slot died: read the image out of the set
			mr := m.prf(MetaAddr(vp.id, s), vp.mver[s], oldPtr)
			rs.AddDigest(&mr)
		case !oldLive && newLive: // slot born: write the image into the set
			vp.mver[s]++
			mw := m.prf(MetaAddr(vp.id, s), vp.mver[s], newPtr)
			ws.AddDigest(&mw)
		case !bytes.Equal(oldPtr, newPtr): // relocated within the page
			mr := m.prf(MetaAddr(vp.id, s), vp.mver[s], oldPtr)
			rs.AddDigest(&mr)
			vp.mver[s]++
			mw := m.prf(MetaAddr(vp.id, s), vp.mver[s], newPtr)
			ws.AddDigest(&mw)
		}
	}
}

// foldMetaSolo records a page's metadata transitions against snap under the
// RSWS lock. It is used on failure paths of mutating operations: a
// page-level Insert or Update that returns ErrPageFull may nevertheless
// have compacted the page and relocated records, and that movement must
// enter the sets. vp.mu must be held.
func (m *Memory) foldMetaSolo(vp *vPage, snap metaSnapshot) {
	part := m.part(vp.id)
	part.mu.Lock()
	rs, ws := m.epochSets(part, vp)
	m.foldMetaDiff(vp, snap, rs, ws)
	part.mu.Unlock()
	vp.touched = true
}

// afterOp runs per-operation post-processing with all locks released:
// verifier pacing first, then the chaos hook's operation notification.
func (m *Memory) afterOp() {
	m.maybePace()
	if hp := m.hook.Load(); hp != nil {
		(*hp).OpDone(m.ops.Load())
	}
}

// applyWriteFault lets hook hp, loaded once at the operation's start,
// corrupt the bytes that actually landed in untrusted memory while the
// accumulators keep the intended image (a dropped or torn DMA write). Must
// be called with vp.mu held, after intended has been stored in slot.
// Faults that cannot be stored in place (length mismatch) are ignored.
func (m *Memory) applyWriteFault(hp *Hook, vp *vPage, slot int, old, intended []byte) {
	if hp == nil {
		return
	}
	mutated := (*hp).MutateWrite(vp.id, slot, old, intended)
	if mutated == nil || len(mutated) != len(intended) || bytes.Equal(mutated, intended) {
		return
	}
	if cur, err := vp.p.Get(slot); err == nil && len(cur) == len(mutated) {
		copy(cur, mutated) // cur aliases the page buffer
	}
}

// Get reads the record in (pageID, slot) through the protected interface
// (Alg. 1 Read). The returned slice is a private copy.
func (m *Memory) Get(pageID uint64, slot int) ([]byte, error) {
	r := m.NewReader()
	defer r.Close()
	return r.Get(pageID, slot, nil)
}

// Reader is one goroutine's handle for a run of protected reads (a range
// scan, a point lookup's one to three fetches): it holds one keyed hasher
// for all of them and lets the caller supply the buffer each record image
// lands in. Every read is the same Alg. 1 Read as Memory.Get, which is a
// one-shot Reader. Callers must Close; a Reader is not safe for concurrent
// use.
type Reader struct {
	m *Memory
	h sethash.Hasher
}

// NewReader checks a keyed hasher out of the PRF key's pool (none in
// ModeBaseline, which evaluates no PRF).
func (m *Memory) NewReader() Reader {
	r := Reader{m: m}
	if m.cfg.Mode == ModeRSWS {
		r.h = m.key.NewHasher()
	}
	return r
}

// Close returns the hasher to the pool. Idempotent.
func (r *Reader) Close() { r.h.Close() }

// Get is Memory.Get with the private copy of the record appended to dst.
func (r *Reader) Get(pageID uint64, slot int, dst []byte) ([]byte, error) {
	m := r.m
	vp, err := m.lookup(pageID)
	if err != nil {
		return nil, err
	}
	vp.mu.Lock()
	data, err := vp.p.Get(slot)
	if err != nil {
		vp.mu.Unlock()
		return nil, err
	}
	dst = append(dst, data...)
	if m.cfg.Mode == ModeRSWS {
		m.ops.Add(1)
		part := m.part(pageID)
		part.mu.Lock()
		rs, ws := m.epochSets(part, vp)
		vp.ensureVers(slot)
		r.fold(rs, ws, CellAddr(pageID, slot), &vp.vers[slot], data)
		if m.cfg.VerifyMetadata {
			// The offset lookup is itself a verifiable read of the
			// line-pointer cell (§4.2: Get performs two verifiable reads).
			r.fold(rs, ws, MetaAddr(pageID, slot), &vp.mver[slot], vp.p.SlotPointerBytes(slot))
		}
		part.mu.Unlock()
		vp.touched = true
	}
	vp.mu.Unlock()
	m.afterOp()
	return dst, nil
}

// fold is the one place a protected read enters the sets: the cell image at
// its current version is folded into h(RS) (Alg. 1 line 3) and a virtual
// write-back of the same data, at the next version, into h(WS) (line 5).
// The caller holds the page lock and the partition's RSWS lock.
func (r *Reader) fold(rs, ws *sethash.Accumulator, addr Addr, ver *uint64, data []byte) {
	var d sethash.Digest
	r.m.prfEvals.Add(2)
	r.h.PRFvInto(uint64(addr), *ver, data, &d)
	rs.AddDigest(&d)
	*ver++
	r.h.PRFvInto(uint64(addr), *ver, data, &d)
	ws.AddDigest(&d)
}

// Insert stores rec in the page and returns its slot (§4.2 Insert, minus
// the key-chain maintenance, which the storage layer performs with further
// protected calls). The new cell enters h(WS); a freshly allocated cell has
// no read side.
func (m *Memory) Insert(pageID uint64, rec []byte) (int, error) {
	vp, err := m.lookup(pageID)
	if err != nil {
		return 0, err
	}
	vp.mu.Lock()
	track := m.cfg.Mode == ModeRSWS
	var snap metaSnapshot
	if track && m.cfg.VerifyMetadata {
		snap = vp.snapshotMeta()
	}
	slot, err := vp.p.Insert(rec)
	if err != nil {
		if track && m.cfg.VerifyMetadata {
			m.foldMetaSolo(vp, snap)
		}
		vp.mu.Unlock()
		return 0, err
	}
	if track {
		m.ops.Add(1)
		part := m.part(pageID)
		part.mu.Lock()
		rs, ws := m.epochSets(part, vp)
		vp.ensureVers(slot)
		// Versions are never reset on slot reuse: the multiset must not
		// contain duplicate (addr, ver, data) elements across lifetimes.
		vp.vers[slot]++
		dw := m.prf(CellAddr(pageID, slot), vp.vers[slot], rec)
		ws.AddDigest(&dw)
		if m.cfg.VerifyMetadata {
			m.foldMetaDiff(vp, snap, rs, ws)
		}
		part.mu.Unlock()
		vp.touched = true
	}
	m.applyWriteFault(m.hook.Load(), vp, slot, nil, rec)
	vp.mu.Unlock()
	m.afterOp()
	return slot, nil
}

// Update overwrites the record in (pageID, slot) (Alg. 1 Write): the old
// image enters h(RS), the new image h(WS). If the new record does not fit
// the page, page.ErrPageFull is returned and the caller relocates (§4.2);
// no PRF is evaluated for it. The old image's read is folded from the page
// bytes before the new image overwrites them, so the write copies the old
// image only for an installed fault hook, which is handed it.
func (m *Memory) Update(pageID uint64, slot int, rec []byte) error {
	vp, err := m.lookup(pageID)
	if err != nil {
		return err
	}
	hp := m.hook.Load()
	vp.mu.Lock()
	track := m.cfg.Mode == ModeRSWS
	var snap metaSnapshot
	if track && m.cfg.VerifyMetadata {
		snap = vp.snapshotMeta()
	}
	if err := vp.p.Reserve(slot, len(rec)); err != nil {
		// A refused update may still have compacted the page.
		if track && m.cfg.VerifyMetadata {
			m.foldMetaSolo(vp, snap)
		}
		vp.mu.Unlock()
		return err
	}
	old, _ := vp.p.Get(slot) // live: Reserve checked the slot
	var oldCopy []byte
	if hp != nil {
		oldCopy = append([]byte(nil), old...)
	}
	var part *partition
	var rs, ws *sethash.Accumulator
	if track {
		m.ops.Add(1)
		part = m.part(pageID)
		part.mu.Lock()
		rs, ws = m.epochSets(part, vp)
		vp.ensureVers(slot)
		dr := m.prf(CellAddr(pageID, slot), vp.vers[slot], old)
		rs.AddDigest(&dr)
	}
	_ = vp.p.Update(slot, rec) // cannot fail: Reserve made the room
	if track {
		vp.vers[slot]++
		dw := m.prf(CellAddr(pageID, slot), vp.vers[slot], rec)
		ws.AddDigest(&dw)
		if m.cfg.VerifyMetadata {
			m.foldMetaDiff(vp, snap, rs, ws)
		}
		part.mu.Unlock()
		vp.touched = true
	}
	m.applyWriteFault(hp, vp, slot, oldCopy, rec)
	vp.mu.Unlock()
	m.afterOp()
	return nil
}

// Delete removes the record in (pageID, slot) (§4.2 Delete): the final
// image is read out into h(RS), from the page bytes before a compaction
// can overwrite them, and the cell leaves the verified set. Space reclamation
// is deferred to the verification scan unless EagerCompaction is
// configured (§4.3 "Compact page during verification").
func (m *Memory) Delete(pageID uint64, slot int) error {
	vp, err := m.lookup(pageID)
	if err != nil {
		return err
	}
	vp.mu.Lock()
	old, err := vp.p.Get(slot)
	if err != nil {
		vp.mu.Unlock()
		return err
	}
	track := m.cfg.Mode == ModeRSWS
	var snap metaSnapshot
	if track && m.cfg.VerifyMetadata {
		snap = vp.snapshotMeta()
	}
	if err := vp.p.Delete(slot); err != nil {
		vp.mu.Unlock()
		return err
	}
	var part *partition
	var rs, ws *sethash.Accumulator
	if track {
		m.ops.Add(1)
		part = m.part(pageID)
		part.mu.Lock()
		rs, ws = m.epochSets(part, vp)
		vp.ensureVers(slot)
		dr := m.prf(CellAddr(pageID, slot), vp.vers[slot], old) // a tombstone moves no byte
		rs.AddDigest(&dr)
	}
	if m.cfg.EagerCompaction {
		// Ablation configuration: pay the record-relocation cost on every
		// delete instead of at scan time.
		vp.p.Compact()
	}
	if track {
		if m.cfg.VerifyMetadata {
			m.foldMetaDiff(vp, snap, rs, ws)
		}
		part.mu.Unlock()
		vp.touched = true
	}
	vp.mu.Unlock()
	m.afterOp()
	return nil
}

// PageInfo describes a page's space situation; the storage layer uses it to
// choose insertion targets. Reading it is an untracked metadata access: the
// worst a lying header can cause is wasted space, not an integrity breach
// (§4.3).
type PageInfo struct {
	ContiguousFree int
	Reclaimable    int
	LiveRecords    int
	SlotCount      int
}

// Info returns space accounting for a page.
func (m *Memory) Info(pageID uint64) (PageInfo, error) {
	vp, err := m.lookup(pageID)
	if err != nil {
		return PageInfo{}, err
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	return PageInfo{
		ContiguousFree: vp.p.ContiguousFree(),
		Reclaimable:    vp.p.ReclaimableBytes(),
		LiveRecords:    vp.p.LiveRecords(),
		SlotCount:      vp.p.SlotCount(),
	}, nil
}

// Slots invokes fn for every live record in the page without tracking the
// reads (for recovery, debugging and higher-layer scans of their own state;
// query-path reads must use Get). Records are copied.
func (m *Memory) Slots(pageID uint64, fn func(slot int, rec []byte) bool) error {
	vp, err := m.lookup(pageID)
	if err != nil {
		return err
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	vp.p.Slots(func(slot int, rec []byte) bool {
		return fn(slot, append([]byte(nil), rec...))
	})
	return nil
}

// PageIDs returns a snapshot of all registered page IDs (unordered).
func (m *Memory) PageIDs() []uint64 {
	var ids []uint64
	for _, part := range m.parts {
		part.pagesMu.RLock()
		for id := range part.pages {
			ids = append(ids, id)
		}
		part.pagesMu.RUnlock()
	}
	return ids
}

// TamperRecord mutates a record's bytes in place, bypassing every protected
// interface — the adversary of §3.1 writing directly to host memory. The
// read/write sets are deliberately not updated; verification must detect
// the divergence.
func (m *Memory) TamperRecord(pageID uint64, slot int, data []byte) error {
	vp, err := m.lookup(pageID)
	if err != nil {
		return err
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	old, err := vp.p.Get(slot)
	if err != nil {
		return err
	}
	if len(data) > len(old) {
		return fmt.Errorf("vmem: tamper payload %d bytes exceeds record %d", len(data), len(old))
	}
	copy(old, data) // old aliases the page buffer
	return nil
}

// PageImage is a raw copy of one page's untrusted state: the byte buffer
// plus the (equally untrusted) version ledgers. SnapshotPageRaw and
// RestorePageRaw move it in and out wholesale, bypassing every protected
// interface — the §3.1 adversary recording a page and replaying it later
// (stale-page rollback). The enclave-held accumulators and touched-page
// bookkeeping are deliberately untouched, so verification must flag the
// replay once the stale content meets a protected read or a page scan.
type PageImage struct {
	ID    uint64
	Buf   []byte
	Vers  []uint64
	MVers []uint64
	HVer  uint64
}

// SnapshotPageRaw copies a page's untrusted state (chaos testing only).
func (m *Memory) SnapshotPageRaw(pageID uint64) (*PageImage, error) {
	vp, err := m.lookup(pageID)
	if err != nil {
		return nil, err
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	return &PageImage{
		ID:    pageID,
		Buf:   append([]byte(nil), vp.p.RawBuffer()...),
		Vers:  append([]uint64(nil), vp.vers...),
		MVers: append([]uint64(nil), vp.mver...),
		HVer:  vp.hver,
	}, nil
}

// RestorePageRaw overwrites a page's untrusted state with an earlier
// snapshot, simulating a stale-page replay attack (chaos testing only).
func (m *Memory) RestorePageRaw(img *PageImage) error {
	vp, err := m.lookup(img.ID)
	if err != nil {
		return err
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	buf := vp.p.RawBuffer()
	if len(buf) != len(img.Buf) {
		return fmt.Errorf("vmem: page image is %d bytes, page is %d", len(img.Buf), len(buf))
	}
	copy(buf, img.Buf)
	vp.vers = append(vp.vers[:0], img.Vers...)
	vp.mver = append(vp.mver[:0], img.MVers...)
	vp.hver = img.HVer
	return nil
}

// TamperVersion corrupts the untrusted version ledger for a cell; the PRF
// covers versions, so this too must be detected.
func (m *Memory) TamperVersion(pageID uint64, slot int, ver uint64) error {
	vp, err := m.lookup(pageID)
	if err != nil {
		return err
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	vp.ensureVers(slot)
	vp.vers[slot] = ver
	return nil
}

var _ = page.ErrPageFull // callers match on page-layer errors
