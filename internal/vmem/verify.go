package vmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"veridb/internal/sethash"
)

// prfJob is one cell awaiting PRF evaluation during a page scan. Collecting
// jobs first and folding them second lets the expensive HMAC work run on
// any number of workers while the page lock freezes the content.
type prfJob struct {
	addr Addr
	ver  uint64
	data []byte // aliases the locked page buffer; read-only
}

// scanChunkMin is the smallest per-worker chunk worth a goroutine: below
// this many PRF evaluations (~16×2 µs) the handoff overhead dominates.
const scanChunkMin = 16

// collectScanJobs lists every live cell of the page as a PRF job, growing
// the version ledgers up front so workers only ever read them. Callers must
// hold vp.mu.
func (m *Memory) collectScanJobs(vp *vPage) []prfJob {
	jobs := make([]prfJob, 0, vp.p.LiveRecords()+1)
	vp.p.Slots(func(slot int, rec []byte) bool {
		vp.ensureVers(slot)
		jobs = append(jobs, prfJob{CellAddr(vp.id, slot), vp.vers[slot], rec})
		if m.cfg.VerifyMetadata {
			jobs = append(jobs, prfJob{MetaAddr(vp.id, slot), vp.mver[slot], vp.p.SlotPointerBytes(slot)})
		}
		return true
	})
	if m.cfg.VerifyMetadata {
		jobs = append(jobs, prfJob{HeaderAddr(vp.id), vp.hver, vp.headerBytes()})
	}
	return jobs
}

// hashJobs folds every job's PRF image into one digest. With more than one
// configured worker and enough jobs, the evaluations are chunked across
// goroutines into thread-local accumulators that XOR-combine at the end —
// bit-identical to the serial fold because XOR is associative and
// commutative. Each worker reuses one pooled HMAC state for its whole
// chunk (sethash.Hasher).
func (m *Memory) hashJobs(jobs []prfJob) sethash.Digest {
	workers := m.cfg.VerifyWorkers
	if max := (len(jobs) + scanChunkMin - 1) / scanChunkMin; workers > max {
		workers = max
	}
	var out sethash.Digest
	if workers <= 1 {
		h := m.key.NewHasher()
		var d sethash.Digest
		for _, j := range jobs {
			h.PRFvInto(uint64(j.addr), j.ver, j.data, &d)
			out.XOR(&d)
		}
		h.Close()
		m.prfEvals.Add(uint64(len(jobs)))
		return out
	}
	partials := make([]sethash.Digest, workers)
	chunk := (len(jobs) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(jobs))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(acc *sethash.Digest, jobs []prfJob) {
			defer wg.Done()
			h := m.key.NewHasher()
			defer h.Close()
			var d sethash.Digest
			for _, j := range jobs {
				h.PRFvInto(uint64(j.addr), j.ver, j.data, &d)
				acc.XOR(&d)
			}
		}(&partials[w], jobs[lo:hi])
	}
	wg.Wait()
	for i := range partials {
		out.XOR(&partials[i])
	}
	m.prfEvals.Add(uint64(len(jobs)))
	return out
}

// scanPage performs the Alg. 2 inner loop on one page: every live cell is
// read into the current epoch's ReadSet and written into the next epoch's
// WriteSet. Only this page is locked while it happens (§4.1: "only the page
// that is currently being scanned is locked"). When deferred compaction is
// enabled, space reclamation rides along with the scan (§4.3).
//
// Untouched pages take the fast path of the touched-page optimisation
// (§4.3): their content digest from the previous scan is carried forward
// without re-hashing a single byte.
//
// scanPage may run on any verification worker: the partition's scanMu is
// held by the pass that dispatched it, every page is dispatched at most
// once per pass, and the kick-off of each worker (goroutine start or task
// channel send) orders the pass's epoch rotation before the worker's
// unlocked reads of part.epoch.
func (m *Memory) scanPage(part *partition, vp *vPage) {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	// Epoch and scannedEpoch are only written under part.mu by scanners of
	// this partition, which scanMu (held by the dispatching pass) and the
	// per-page dispatch ordering serialise, so reading them here without
	// the RSWS lock is safe.
	if vp.scannedEpoch == part.epoch {
		return
	}
	if !m.cfg.FullScan && !vp.touched {
		part.mu.Lock()
		part.rsCur.AddDigest(&vp.resident)
		part.wsNext.AddDigest(&vp.resident)
		vp.scannedEpoch = part.epoch
		part.mu.Unlock()
		m.fastScans.Add(1)
		return
	}
	// Compaction as a side task of the scan: the page is locked and about
	// to be fully read anyway.
	if !m.cfg.NoScanCompaction && !m.cfg.EagerCompaction && vp.p.ReclaimableBytes() > 0 {
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
	// Hash every live cell. The page lock freezes the content, so the
	// (expensive) PRF evaluations can happen outside the RSWS lock —
	// chunked across VerifyWorkers goroutines — and only the final fold
	// contends.
	resident := m.hashJobs(m.collectScanJobs(vp))
	part.mu.Lock()
	part.rsCur.AddDigest(&resident)  // Alg. 2 line 6
	part.wsNext.AddDigest(&resident) // Alg. 2 line 7
	vp.scannedEpoch = part.epoch
	part.mu.Unlock()
	vp.resident = resident
	vp.touched = false
	m.scans.Add(1)
}

// rotate closes the partition's epoch: the read and write sets must now
// hash the same multiset (Alg. 2 line 9); any divergence is evidence of
// tampering and raises the sticky alarm, which is how every caller learns
// of it. The next-epoch accumulators become current.
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

// partitionPageIDs snapshots the partition's registered pages.
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

// scanPartition runs one complete verification pass over a partition and
// rotates its epoch.
func (m *Memory) scanPartition(part *partition) {
	part.scanMu.Lock()
	defer part.scanMu.Unlock()
	part.mu.Lock()
	part.scanning = true
	part.mu.Unlock()
	for _, id := range part.pageIDSnapshot() {
		if vp := part.lookupLocal(id); vp != nil {
			m.scanPage(part, vp)
		}
	}
	m.rotate(part)
}

// VerifyAll runs a full verification pass over every partition — all of
// them, so every epoch rotates — and returns the sticky alarm: nil only
// if no rotation, in this call, in the background verifier or in any
// earlier pass, ever found the read and write sets diverged. (A tampered
// epoch the background pass rotated first leaves the next epoch
// self-consistent; the alarm it raised is the answer, not this call's own
// clean rotations.) Partitions are scanned by up to VerifyWorkers
// goroutines at once — each partition has its own RSWS lock and scan lock
// (§4.3), so passes are independent.
//
// A running background verifier is paused for the call: its pass in
// flight is completed at once rather than at the pace of protected
// operations — it holds that partition's scan lock between kicks, and on
// an idle instance no kick would ever come — and paced scanning resumes
// when VerifyAll returns.
func (m *Memory) VerifyAll() error {
	if v := m.verifier.Load(); v != nil {
		// Once the loop has taken the request it finishes its pass without
		// waiting for kicks, which releases the scan lock scanPartition
		// below queues on, and starts no new pass until resume is closed.
		resume := make(chan struct{})
		select {
		case v.pause <- resume:
			defer close(resume)
		case <-v.done: // stopped meanwhile: nothing holds a scan lock
		}
	}
	workers := min(m.cfg.VerifyWorkers, len(m.parts))
	if workers <= 1 {
		for _, part := range m.parts {
			m.scanPartition(part)
		}
		return m.Alarm()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(m.parts) {
					return
				}
				m.scanPartition(m.parts[i])
			}
		}()
	}
	wg.Wait()
	return m.Alarm()
}

// ResidentChecksum XORs every page's last-scanned resident digest into one
// value. Identical memory contents scanned under the same PRF key must
// produce identical checksums regardless of VerifyWorkers — the
// observable that pins parallel scans bit-identical to serial ones
// (tests and the verify-scaling benchmark check it). Diagnostic only.
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

// scanTask is one background page scan handed to a verifier worker.
type scanTask struct {
	part *partition
	vp   *vPage
}

// verifier is the non-quiescent background verification machinery (§6.1:
// "the background verification thread always running, and perform a memory
// scan after x operations"). Each batch of opsPerScan protected operations
// triggers the scan of one page; the scans themselves execute on a pool of
// VerifyWorkers scanner goroutines fed from the kick-paced queue, and
// completing a pass over a partition rotates its epoch.
type verifier struct {
	opsPerScan uint64
	opsSince   atomic.Uint64
	kick       chan struct{}
	pause      chan chan struct{} // VerifyAll hands over its resume channel
	stop       chan struct{}
	done       chan struct{}

	tasks    chan scanTask
	inflight sync.WaitGroup // page scans of the current pass
	workerWG sync.WaitGroup
}

// StartVerifier launches the background verifier. opsPerPageScan is the
// Fig. 10 x-axis: one page is scanned per that many protected operations;
// the scans run on the memory's VerifyWorkers scanner goroutines. It
// returns ErrVerifierRunning if a verifier is already attached.
func (m *Memory) StartVerifier(opsPerPageScan int) error {
	if opsPerPageScan <= 0 {
		opsPerPageScan = 1
	}
	v := &verifier{
		opsPerScan: uint64(opsPerPageScan),
		kick:       make(chan struct{}, 4096),
		pause:      make(chan chan struct{}),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		tasks:      make(chan scanTask),
	}
	if !m.verifier.CompareAndSwap(nil, v) {
		return ErrVerifierRunning
	}
	for w := 0; w < m.cfg.VerifyWorkers; w++ {
		v.workerWG.Add(1)
		go func() {
			defer v.workerWG.Done()
			for t := range v.tasks {
				m.scanPage(t.part, t.vp)
				v.inflight.Done()
			}
		}()
	}
	go m.verifierLoop(v)
	return nil
}

// StopVerifier signals the background verifier, waits for it to finish its
// current partition pass (so no epoch is left half-scanned), shuts the
// scanner workers down, and returns. It is idempotent and safe to call
// concurrently (quarantine entry and DB close may race): exactly one
// caller detaches and drains the verifier, the rest return immediately.
func (m *Memory) StopVerifier() {
	v := m.verifier.Swap(nil)
	if v == nil {
		return
	}
	close(v.stop)
	<-v.done
	close(v.tasks)
	v.workerWG.Wait()
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

// verifierLoop drives paced scanning: one page dispatched to the scanner
// pool per kick, rotating a partition's epoch whenever its pass completes
// (after all in-flight page scans of the pass have drained), then moving to
// the next partition. On stop, and when VerifyAll pauses it, it completes
// the in-flight pass so locks and epoch state end balanced.
func (m *Memory) verifierLoop(v *verifier) {
	defer close(v.done)
	pi := 0
	var pending []uint64
	inPass := false
	part := m.parts[0]

	startPass := func() {
		part = m.parts[pi]
		part.scanMu.Lock()
		part.mu.Lock()
		part.scanning = true
		part.mu.Unlock()
		pending = part.pageIDSnapshot()
		inPass = true
	}
	dispatch := func(id uint64) {
		if vp := part.lookupLocal(id); vp != nil {
			v.inflight.Add(1)
			v.tasks <- scanTask{part, vp}
		}
	}
	endPass := func() {
		v.inflight.Wait() // every page of the pass scanned before rotation
		m.rotate(part)    // a divergence raises the alarm; the pass keeps going
		part.scanMu.Unlock()
		inPass = false
		pi = (pi + 1) % len(m.parts)
	}
	step := func() {
		if !inPass {
			startPass()
		}
		if len(pending) > 0 {
			id := pending[0]
			pending = pending[1:]
			dispatch(id)
		}
		if len(pending) == 0 {
			endPass()
		}
	}
	finishPass := func() {
		if !inPass {
			return
		}
		for _, id := range pending {
			dispatch(id)
		}
		pending = nil
		endPass()
	}

	for {
		select {
		case <-v.stop:
			finishPass()
			return
		case resume := <-v.pause:
			finishPass()
			select {
			case <-resume:
			case <-v.stop:
				return
			}
		case <-v.kick:
			step()
		}
	}
}
