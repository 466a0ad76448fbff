package vmem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"veridb/internal/sethash"
)

// pageDigest folds the PRF image of every live cell of the page — and, with
// VerifyMetadata, of every live line pointer and the header — into one
// digest, on one pooled HMAC state. It is both a page scan's read of the
// page and FreePage's final read-out. Callers must hold vp.mu.
func (m *Memory) pageDigest(vp *vPage) sethash.Digest {
	h := m.key.NewHasher()
	defer h.Close()
	var out, d sethash.Digest
	n := uint64(0)
	add := func(addr Addr, ver uint64, data []byte) {
		h.PRFvInto(uint64(addr), ver, data, &d)
		out.XOR(&d)
		n++
	}
	vp.p.Slots(func(slot int, rec []byte) bool {
		vp.ensureVers(slot)
		add(CellAddr(vp.id, slot), vp.vers[slot], rec)
		if m.cfg.VerifyMetadata {
			add(MetaAddr(vp.id, slot), vp.mver[slot], vp.p.SlotPointerBytes(slot))
		}
		return true
	})
	if m.cfg.VerifyMetadata {
		add(HeaderAddr(vp.id), vp.hver, vp.headerBytes())
	}
	m.prfEvals.Add(n)
	return out
}

// scanPage performs the Alg. 2 inner loop on one page: it hashes every
// live cell, marks the page scanned in the current epoch and returns the
// page's resident digest, which the caller folds into the current epoch's
// ReadSet and the next epoch's WriteSet (foldScan) before the epoch
// rotates. A page already scanned this epoch, or freed, returns the zero
// digest. Only this page is locked while it happens (§4.1: "only the page
// that is currently being scanned is locked"), from the first cell read to
// the mark, so an operation on the page lands wholly before the scan
// (current epoch) or after it (next). When deferred compaction is enabled,
// space reclamation rides along with the scan (§4.3).
//
// Untouched pages take the fast path of the touched-page optimisation
// (§4.3): their content digest from the previous scan is carried forward
// without re-hashing a single byte.
//
// The caller holds part.scanMu, itself or through the VerifyAll it scans
// for. rotate, the only writer of part.epoch, runs under that lock too, so
// the epoch is read here without the RSWS lock.
func (m *Memory) scanPage(part *partition, vp *vPage) sethash.Digest {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	if vp.freed || vp.scannedEpoch == part.epoch {
		return sethash.Digest{}
	}
	if !m.cfg.FullScan && !vp.touched {
		vp.scannedEpoch = part.epoch
		m.fastScans.Add(1)
		return vp.resident
	}
	// Compaction as a side task of the scan: the page is locked and about
	// to be fully read anyway.
	if !m.cfg.EagerCompaction && vp.p.ReclaimableBytes() > 0 {
		if m.cfg.VerifyMetadata {
			snap := vp.snapshotMeta()
			vp.p.Compact()
			part.mu.Lock()
			// Not yet marked scanned, so the relocation transitions belong
			// to the current epoch.
			rs, ws := m.epochSets(part, vp)
			m.foldMetaDiff(vp, snap, rs, ws)
			part.mu.Unlock()
		} else {
			vp.p.Compact()
		}
	}
	// The page latch freezes the content, so the PRF evaluations run
	// outside the RSWS lock.
	vp.resident = m.pageDigest(vp)
	vp.scannedEpoch = part.epoch
	vp.touched = false
	m.scans.Add(1)
	return vp.resident
}

// foldScan folds scanned pages' resident digests into the current epoch's
// ReadSet (Alg. 2 line 6) and the next epoch's WriteSet (line 7). XOR
// folds in any grouping and order to the same value, so a digest of many
// pages folds once.
func (part *partition) foldScan(d *sethash.Digest) {
	part.mu.Lock()
	part.rsCur.AddDigest(d)
	part.wsNext.AddDigest(d)
	part.mu.Unlock()
}

// rotate closes the partition's epoch: the read and write sets must now
// hash the same multiset (Alg. 2 line 9); any divergence is evidence of
// tampering and raises the sticky alarm, which is how every caller learns
// of it. The next-epoch accumulators become current. Callers hold
// part.scanMu, and the pass's page list is empty.
func (m *Memory) rotate(part *partition) {
	part.mu.Lock()
	ok := part.rsCur.Equal(&part.wsCur)
	rsSum, wsSum := part.rsCur.Sum(), part.wsCur.Sum()
	epoch := part.epoch
	part.rsCur = part.rsNext
	part.wsCur = part.wsNext
	part.rsNext.Reset()
	part.wsNext.Reset()
	part.epoch++
	part.scanning = false
	part.mu.Unlock()
	m.rotations.Add(1)
	if !ok {
		m.raiseAlarm(fmt.Errorf("%w: epoch %d, h(RS)=%v != h(WS)=%v",
			ErrTamperDetected, epoch, rsSum, wsSum))
	}
}

// pageIDSnapshot snapshots the partition's registered pages.
func (part *partition) pageIDSnapshot() []uint64 {
	part.pagesMu.RLock()
	ids := make([]uint64, 0, len(part.pages))
	for id := range part.pages {
		ids = append(ids, id)
	}
	part.pagesMu.RUnlock()
	return ids
}

func (part *partition) lookupLocal(id uint64) *vPage {
	part.pagesMu.RLock()
	vp := part.pages[id]
	part.pagesMu.RUnlock()
	return vp
}

// beginPass starts a pass over the partition unless one is in flight: the
// pages registered now become the pass's page list, and a page registered
// from here to the rotation is marked scanned as it registers (NewPageIn).
// Both happen under the RSWS lock, so every page is in exactly one of the
// two. Callers hold part.scanMu.
func (part *partition) beginPass() {
	part.mu.Lock()
	defer part.mu.Unlock()
	if part.scanning {
		return
	}
	part.scanning = true
	part.pending = part.pageIDSnapshot()
}

// scanNext is one step of the background verifier on a partition: it
// scans the next page of the pass in flight, beginning a pass if none is,
// and rotates the epoch once the pass has no page left. It holds the
// partition's scan lock for that one page only, and reports whether it
// rotated.
func (m *Memory) scanNext(part *partition) bool {
	part.scanMu.Lock()
	defer part.scanMu.Unlock()
	part.beginPass()
	if len(part.pending) > 0 {
		id := part.pending[0]
		part.pending = part.pending[1:]
		if vp := part.lookupLocal(id); vp != nil {
			d := m.scanPage(part, vp)
			part.foldScan(&d)
		}
	}
	if len(part.pending) > 0 {
		return false
	}
	m.rotate(part)
	return true
}

// scanChunk is how many pages a VerifyAll goroutine claims at a time.
const scanChunk = 16

// finishPasses completes the pass in flight over each of parts, beginning
// one where none is, with all their remaining pages spread over GOMAXPROCS
// goroutines, and then rotates every one of them. Each goroutine folds its
// pages into digests of its own, one per partition, and into the
// partitions once, at its end. Callers hold each partition's scan lock.
func (m *Memory) finishPasses(parts []*partition) {
	type pageScan struct {
		part int // index into parts
		vp   *vPage
	}
	var scans []pageScan
	for i, part := range parts {
		part.beginPass()
		for _, id := range part.pending {
			if vp := part.lookupLocal(id); vp != nil {
				scans = append(scans, pageScan{i, vp})
			}
		}
		part.pending = nil
	}
	var next atomic.Int64
	scan := func() {
		acc := make([]sethash.Digest, len(parts))
		for lo := int(next.Add(scanChunk)) - scanChunk; lo < len(scans); lo = int(next.Add(scanChunk)) - scanChunk {
			for _, sc := range scans[lo:min(lo+scanChunk, len(scans))] {
				d := m.scanPage(parts[sc.part], sc.vp)
				acc[sc.part].XOR(&d)
			}
		}
		for i, part := range parts {
			if !acc[i].Zero() {
				part.foldScan(&acc[i])
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(scans)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scan()
		}()
	}
	scan()
	wg.Wait()
	for _, part := range parts {
		m.rotate(part)
	}
}

// VerifyAll runs a full verification pass over every partition — all of
// them, so every epoch rotates — and returns the sticky alarm: nil only
// if no rotation, in this call, in the background verifier or in any
// earlier pass, ever found the read and write sets diverged. (A tampered
// epoch the background pass rotated first leaves the next epoch
// self-consistent; the alarm it raised is the answer, not this call's own
// clean rotations.)
//
// It takes every partition's scan lock in index order, so it waits for at
// most one background page scan. It first completes and rotates any pass
// the background verifier has in flight, then runs one fresh pass over
// every partition, its pages spread over GOMAXPROCS goroutines: a tamper
// that landed before the call has met a whole epoch that began after it by
// the time the call returns, and even a one-partition memory verifies on
// every core.
func (m *Memory) VerifyAll() error {
	for _, part := range m.parts {
		part.scanMu.Lock()
	}
	defer func() {
		for _, part := range m.parts {
			part.scanMu.Unlock()
		}
	}()
	var inFlight []*partition
	for _, part := range m.parts {
		if part.scanning {
			inFlight = append(inFlight, part)
		}
	}
	m.finishPasses(inFlight)
	m.finishPasses(m.parts)
	return m.Alarm()
}

// ResidentChecksum XORs every page's last-scanned resident digest into one
// value. Identical memory contents scanned under the same PRF key must
// produce identical checksums however many goroutines VerifyAll spread the
// pass over — the observable that pins parallel scans bit-identical to
// serial ones (tests and the verify-scaling benchmark check it).
// Diagnostic only.
func (m *Memory) ResidentChecksum() sethash.Digest {
	var sum sethash.Digest
	for _, part := range m.parts {
		for _, id := range part.pageIDSnapshot() {
			if vp := part.lookupLocal(id); vp != nil {
				vp.mu.Lock()
				sum.XOR(&vp.resident)
				vp.mu.Unlock()
			}
		}
	}
	return sum
}

// verifier is the non-quiescent background verification thread (§6.1:
// "the background verification thread always running, and perform a
// memory scan after x operations"): one goroutine that scans one page per
// opsPerScan protected operations, rotating a partition's epoch when its
// pass completes and then moving on to the next partition.
type verifier struct {
	opsPerScan uint64
	opsSince   atomic.Uint64
	kick       chan struct{}
	stop       chan struct{}
	done       chan struct{}
}

// StartVerifier launches the background verifier. opsPerPageScan is the
// Fig. 10 x-axis: one page is scanned per that many protected operations.
// It returns ErrVerifierRunning if a verifier is already attached.
func (m *Memory) StartVerifier(opsPerPageScan int) error {
	if opsPerPageScan <= 0 {
		opsPerPageScan = 1
	}
	v := &verifier{
		opsPerScan: uint64(opsPerPageScan),
		kick:       make(chan struct{}, 4096),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if !m.verifier.CompareAndSwap(nil, v) {
		return ErrVerifierRunning
	}
	go m.verifierLoop(v)
	return nil
}

// StopVerifier signals the background verifier and waits for its goroutine
// to finish the page scan in progress and exit. A pass it leaves in flight
// stays on its partition: the next verifier resumes it and VerifyAll
// completes it. It is idempotent and safe to call concurrently (quarantine
// entry and DB close may race): exactly one caller detaches and waits, the
// rest return immediately.
func (m *Memory) StopVerifier() {
	v := m.verifier.Swap(nil)
	if v == nil {
		return
	}
	close(v.stop)
	<-v.done
}

// maybePace is called after every protected operation; it wakes the
// verifier once per opsPerScan operations.
func (m *Memory) maybePace() {
	v := m.verifier.Load()
	if v == nil {
		return
	}
	if v.opsSince.Add(1)%v.opsPerScan == 0 {
		select {
		case v.kick <- struct{}{}:
		default: // verifier is behind; dropping a kick only delays detection
		}
	}
}

// verifierLoop scans one page per kick, moving to the next partition each
// time a pass rotates.
func (m *Memory) verifierLoop(v *verifier) {
	defer close(v.done)
	for pi := 0; ; {
		select {
		case <-v.stop:
			return
		case <-v.kick:
			if m.scanNext(m.parts[pi]) {
				pi = (pi + 1) % len(m.parts)
			}
		}
	}
}
