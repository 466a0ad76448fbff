// Package vmem implements VeriDB's write-read consistent memory (paper
// §4.1): a paged, in-memory store whose every protected read and write is
// folded into keyed ReadSet/WriteSet multiset hashes held by the (simulated)
// SGX enclave, with Concerto-style non-quiescent deferred verification.
//
// Data placement follows the paper's fundamental design decision (§3.3):
// the pages themselves live in untrusted memory (the ordinary Go heap),
// while the enclave holds only the per-partition accumulators and the PRF
// key. Any mutation that bypasses the protected interfaces — simulated by
// the Tamper* methods — makes the read set and write set of the enclosing
// epoch diverge, which the next verification scan detects.
//
// Every cell is a (addr, version, bytes) triple; versions increase on every
// protected access, making all multiset elements distinct (Blum et al.'s
// timestamped construction), so the XOR-homomorphic set hash is sound.
//
// Concurrency follows §4.3: the address space is split across a
// configurable number of RSWS partitions, each with its own accumulator
// lock; a verification scan locks only the page currently being scanned.
package vmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"veridb/internal/enclave"
	"veridb/internal/page"
	"veridb/internal/sethash"
)

// Mode selects how much verification work the memory performs.
type Mode int

const (
	// ModeRSWS maintains read/write set hashes for every protected access
	// (the VeriDB configuration).
	ModeRSWS Mode = iota
	// ModeBaseline performs the same data movement with no verification
	// bookkeeping at all (the paper's Baseline configuration, Fig. 9).
	ModeBaseline
)

// Config tunes the memory. The zero value is a single-partition RSWS memory
// with 8 KB pages, metadata excluded from verification, touched-page
// tracking and scan-time compaction on — the paper's recommended
// configuration after the §4.3 optimisations.
type Config struct {
	// Mode selects verification on (ModeRSWS) or off (ModeBaseline).
	Mode Mode
	// Partitions is the number of ReadSet/WriteSet pairs, each with its own
	// lock (§4.3 "Use multiple RSWSs to avoid lock contention"). Zero
	// means 1.
	Partitions int
	// PageSize in bytes; zero means page.DefaultSize (8 KB).
	PageSize int
	// VerifyMetadata also tracks page metadata cells (line pointers and
	// the header) in the read/write sets — the paper's "RSWS incl.
	// metadata" configuration. Off by default per the §4.3 optimisation.
	VerifyMetadata bool
	// FullScan disables touched-page tracking, forcing verification to
	// re-hash every page every epoch (ablation of the §4.3 optimisation).
	FullScan bool
	// EagerCompaction compacts a page on every delete instead of deferring
	// reclamation to the verification scan (ablation of §4.3).
	EagerCompaction bool
}

func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	if c.PageSize <= 0 {
		c.PageSize = page.DefaultSize
	}
	return c
}

// ErrTamperDetected is wrapped by every verification-failure alarm.
var ErrTamperDetected = errors.New("vmem: read set and write set diverged (memory tampering detected)")

// ErrNoSuchPage is returned for operations on unregistered page IDs.
var ErrNoSuchPage = errors.New("vmem: no such page")

// ErrVerifierRunning is returned by StartVerifier when a background
// verifier is already attached to the memory.
var ErrVerifierRunning = errors.New("vmem: verifier already running")

// Addr identifies one protected cell: 48 bits of page ID, a metadata bit,
// and 15 bits of slot number.
type Addr uint64

const (
	metaBit   = 1 << 15
	slotMask  = metaBit - 1
	headerSlt = slotMask // reserved slot number for the page-header cell
)

// CellAddr is the address of the record cell (pageID, slot).
func CellAddr(pageID uint64, slot int) Addr {
	return Addr(pageID<<16 | uint64(slot)&slotMask)
}

// MetaAddr is the address of the line-pointer metadata cell for a slot.
func MetaAddr(pageID uint64, slot int) Addr {
	return Addr(pageID<<16 | metaBit | uint64(slot)&slotMask)
}

// HeaderAddr is the address of the page-header metadata cell.
func HeaderAddr(pageID uint64) Addr {
	return Addr(pageID<<16 | metaBit | headerSlt)
}

// PageID extracts the page component of an address.
func (a Addr) PageID() uint64 { return uint64(a) >> 16 }

// Slot extracts the slot component of an address.
func (a Addr) Slot() int { return int(uint64(a) & slotMask) }

// IsMeta reports whether the address names a metadata cell.
func (a Addr) IsMeta() bool { return uint64(a)&metaBit != 0 }

func (a Addr) String() string {
	kind := "cell"
	if a.IsMeta() {
		kind = "meta"
	}
	return fmt.Sprintf("%s(%d,%d)", kind, a.PageID(), a.Slot())
}

// vPage is one protected page: the untrusted slotted byte page plus the
// verification ledger (per-cell versions) and scan bookkeeping.
type vPage struct {
	id uint64

	mu   sync.Mutex
	p    *page.Page
	vers []uint64 // per-slot data-cell versions; index == slot
	mver []uint64 // per-slot line-pointer cell versions
	hver uint64   // header cell version

	scannedEpoch uint64         // partition epoch this page was last scanned in
	touched      bool           // any protected access since the last scan
	freed        bool           // read out by FreePage; scans skip it
	resident     sethash.Digest // XOR of live-cell PRFs as of the last scan
}

// ensureVers grows the version ledgers to cover slot.
func (vp *vPage) ensureVers(slot int) {
	for len(vp.vers) <= slot {
		vp.vers = append(vp.vers, 0)
		vp.mver = append(vp.mver, 0)
	}
}

// partition is one RSWS: a pair of epoch accumulators plus the next-epoch
// pair that non-quiescent verification builds while scanning (Alg. 2).
type partition struct {
	mu       sync.Mutex // the RSWS lock (§4.3)
	rsCur    sethash.Accumulator
	wsCur    sethash.Accumulator
	rsNext   sethash.Accumulator
	wsNext   sethash.Accumulator
	epoch    uint64
	scanning bool

	// scanMu serialises passes over the partition: the background verifier
	// holds it for one page scan, VerifyAll for its whole call.
	scanMu  sync.Mutex
	pending []uint64 // pages the pass in flight has yet to scan; under scanMu

	pagesMu sync.RWMutex
	pages   map[uint64]*vPage
}

// Stats is a snapshot of the memory's counters.
type Stats struct {
	Ops        uint64 // protected operations performed
	PRFEvals   uint64 // keyed PRF evaluations (the dominant overhead, §6.1)
	PagesAlive uint64
	Scans      uint64 // page scans performed by verification
	FastScans  uint64 // untouched pages carried forward without re-hashing
	Rotations  uint64 // completed epoch verifications
	Alarms     uint64
}

// Hook interposes on the untrusted-memory side of protected operations.
// It is the chaos-testing seam: the injector in internal/chaos implements
// it to model an adversary (or failing hardware) sitting between the
// enclave's bookkeeping and the bytes that actually land in host memory.
//
// MutateWrite is called under the page lock on every successful protected
// write (Insert, Update) with the image the accumulators
// folded; the returned slice is what actually lands in untrusted memory.
// Returning intended unchanged (or a slice of a different length, which
// cannot be stored in place) applies no fault. old is the previous cell
// image (nil for fresh inserts).
//
// OpDone is called after every protected operation completes, with all
// locks released, carrying the running protected-op count. The hook may
// invoke the memory's Tamper*/SnapshotPageRaw/RestorePageRaw primitives
// from OpDone, but must not issue protected operations (Get/Insert/...)
// without guarding against re-entry, since those call OpDone again.
type Hook interface {
	MutateWrite(pageID uint64, slot int, old, intended []byte) []byte
	OpDone(ops uint64)
}

// Memory is the write-read consistent memory.
type Memory struct {
	cfg   Config
	key   *sethash.Key
	parts []*partition

	nextPage atomic.Uint64

	ops       atomic.Uint64
	prfEvals  atomic.Uint64
	pageCount atomic.Uint64
	scans     atomic.Uint64
	fastScans atomic.Uint64
	rotations atomic.Uint64
	alarms    atomic.Uint64
	alarm     atomic.Pointer[alarmBox]

	hook     atomic.Pointer[Hook]
	verifier atomic.Pointer[verifier]
}

type alarmBox struct{ err error }

// New builds a memory backed by the given enclave. It returns no error
// today; the result stays for its callers in benchmark/.
func New(enc *enclave.Enclave, cfg Config) (*Memory, error) {
	cfg = cfg.withDefaults()
	m := &Memory{cfg: cfg, key: enc.PRFKey()}
	m.parts = make([]*partition, cfg.Partitions)
	for i := range m.parts {
		m.parts[i] = &partition{epoch: 1, pages: make(map[uint64]*vPage)}
	}
	return m, nil
}

// Config returns the effective configuration.
func (m *Memory) Config() Config { return m.cfg }

// Partitions returns the number of RSWS partitions.
func (m *Memory) Partitions() int { return len(m.parts) }

func (m *Memory) part(pageID uint64) *partition {
	return m.parts[pageID%uint64(len(m.parts))]
}

func (m *Memory) lookup(pageID uint64) (*vPage, error) {
	p := m.part(pageID)
	p.pagesMu.RLock()
	vp := p.pages[pageID]
	p.pagesMu.RUnlock()
	if vp == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchPage, pageID)
	}
	return vp, nil
}

// NewPage registers a fresh empty page and returns its ID. Registration is
// the Register(page) interface of §4.2: from here on the page's cells are
// covered by the verification process. It returns no error today; the
// result stays for its callers in benchmark/.
func (m *Memory) NewPage() (uint64, error) {
	return m.NewPageIn(-1), nil
}

// NewPageIn is NewPage with a partition-affinity hint: when part is a valid
// partition index the returned page is guaranteed to map onto that RSWS
// partition (pageID mod partitions). Sharded tables use this to align a
// shard's pages with one partition so shard latches and RSWS locks contend
// on the same subset of cores. part < 0 means no preference, in which case
// the allocation is identical to NewPage. Skipped IDs are never registered;
// the ID space is sparse by design (48-bit page field in Addr).
func (m *Memory) NewPageIn(affinity int) uint64 {
	id := m.nextPage.Add(1) // IDs start at 1
	if affinity >= 0 {
		want := uint64(affinity % len(m.parts))
		for id%uint64(len(m.parts)) != want {
			id = m.nextPage.Add(1)
		}
	}
	vp := &vPage{id: id, p: page.New(m.cfg.PageSize)}
	part := m.part(id)

	part.mu.Lock()
	if part.scanning {
		// The pass's page list predates this page; attribute it to the
		// next epoch so its (so far empty) ledger stays balanced.
		vp.scannedEpoch = part.epoch
	}
	if m.cfg.Mode == ModeRSWS && m.cfg.VerifyMetadata {
		// The header cell joins the verified set at registration (§4.2
		// Register "updates h(WS) based on the initial data in the page").
		_, ws := m.epochSets(part, vp)
		hw := m.prf(HeaderAddr(id), vp.hver, vp.headerBytes())
		ws.AddDigest(&hw)
		vp.touched = true
	}
	// Registered under the RSWS lock, as beginPass lists pages: a pass
	// either lists this page or was in flight when it was marked above.
	part.pagesMu.Lock()
	part.pages[id] = vp
	part.pagesMu.Unlock()
	part.mu.Unlock()
	m.pageCount.Add(1)
	return id
}

// FreePage removes a page from the verified set. All live cells are folded
// into the read set (a final read-out), so the epoch stays balanced.
func (m *Memory) FreePage(pageID uint64) error {
	vp, err := m.lookup(pageID)
	if err != nil {
		return err
	}
	part := m.part(pageID)
	vp.mu.Lock()
	if m.cfg.Mode == ModeRSWS {
		d := m.pageDigest(vp)
		part.mu.Lock()
		rs, _ := m.epochSets(part, vp)
		rs.AddDigest(&d)
		part.mu.Unlock()
		vp.touched = true
	}
	// A pass that looked the page up before it leaves the map skips it
	// rather than reading it out a second time.
	vp.freed = true
	vp.mu.Unlock()

	part.pagesMu.Lock()
	delete(part.pages, pageID)
	part.pagesMu.Unlock()
	m.pageCount.Add(^uint64(0))
	return nil
}

// headerBytes returns the tracked portion of the page header. Must be
// called with vp.mu held.
func (vp *vPage) headerBytes() []byte {
	return vp.p.RawBuffer()[:page.HeaderSize]
}

// prf evaluates the keyed PRF and counts the evaluation. Callers must hold
// the relevant partition's RSWS lock: the paper performs set updates inside
// dedicated enclave procedures guarded by the RSWS lock, and the resulting
// contention is exactly what Fig. 13 measures.
func (m *Memory) prf(addr Addr, ver uint64, data []byte) sethash.Digest {
	m.prfEvals.Add(1)
	return m.key.PRFv(uint64(addr), ver, data)
}

// epochSets picks the accumulator pair an operation on vp belongs to: the
// current epoch if the page has not yet been scanned this epoch, otherwise
// the next epoch (non-quiescent verification, Alg. 2). Callers must hold
// both vp.mu and part.mu.
func (m *Memory) epochSets(part *partition, vp *vPage) (rs, ws *sethash.Accumulator) {
	if vp.scannedEpoch == part.epoch {
		return &part.rsNext, &part.wsNext
	}
	return &part.rsCur, &part.wsCur
}

// Stats returns a snapshot of the memory's counters.
func (m *Memory) Stats() Stats {
	return Stats{
		Ops:        m.ops.Load(),
		PRFEvals:   m.prfEvals.Load(),
		PagesAlive: m.pageCount.Load(),
		Scans:      m.scans.Load(),
		FastScans:  m.fastScans.Load(),
		Rotations:  m.rotations.Load(),
		Alarms:     m.alarms.Load(),
	}
}

// SetHook installs (or, with nil, removes) the fault-injection hook. The
// hook applies to operations that start after the call; in-flight
// operations may complete with the previous hook.
func (m *Memory) SetHook(h Hook) {
	if h == nil {
		m.hook.Store(nil)
		return
	}
	m.hook.Store(&h)
}

// Epochs snapshots every partition's current epoch number (health
// reporting: progress here is evidence the verifier is rotating).
func (m *Memory) Epochs() []uint64 {
	out := make([]uint64, len(m.parts))
	for i, part := range m.parts {
		part.mu.Lock()
		out[i] = part.epoch
		part.mu.Unlock()
	}
	return out
}

// VerifierRunning reports whether a background verifier is attached.
func (m *Memory) VerifierRunning() bool { return m.verifier.Load() != nil }

// Alarm returns the first tamper-detection error raised by verification, or
// nil. Once an alarm is raised it is never cleared: the paper's guarantee
// is detection with evidence, not recovery.
func (m *Memory) Alarm() error {
	if b := m.alarm.Load(); b != nil {
		return b.err
	}
	return nil
}

func (m *Memory) raiseAlarm(err error) {
	m.alarms.Add(1)
	m.alarm.CompareAndSwap(nil, &alarmBox{err: err})
}

// RaiseAlarm records an integrity failure detected outside the RSWS scan
// — a tampered WAL record, checkpoint segment or manifest found during
// recovery. Durable state is untrusted memory under the same threat model
// as pages, so its tamper evidence enters the same sticky alarm, and the
// same quarantine machinery fences the instance. Like scan alarms, it is
// never cleared.
func (m *Memory) RaiseAlarm(err error) { m.raiseAlarm(err) }
