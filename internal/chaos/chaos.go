// Package chaos is VeriDB's adversarial fault-injection harness. It
// implements the §3.1 threat model as executable faults: a deterministic,
// seeded injector interposes on untrusted memory through the vmem.Hook
// seam (bit flips, stale-page rollback/replay, dropped writes, torn
// writes, scheduled by protected-operation count) and on the wire through
// net.Listener/net.Conn wrappers (dropped connections, delayed and
// duplicated responses). The verification machinery must detect every
// memory fault, and the containment path (quarantine, then core.DB.Recover
// from a replica) must recover from it; the chaos tests and
// core.BenchmarkFaultRecovery drive both.
//
// Determinism: given the same seed, fault schedule and a single-threaded
// workload, the injector corrupts the same cells at the same operation
// counts on every run, so failures reproduce.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"veridb/internal/vmem"
)

// FaultKind names one class of untrusted-memory fault.
type FaultKind int

const (
	// BitFlip flips one bit of a stored record in place, bypassing every
	// protected interface (cosmic ray, or an adversary's direct write).
	BitFlip FaultKind = iota
	// Rollback snapshots pages when it arms and replays a stale image
	// later — the classic replay attack offline memory checking exists to
	// catch (versions make multiset elements distinct, Blum et al.).
	Rollback
	// DroppedWrite lets a protected update's accumulator bookkeeping
	// happen while the bytes never land in untrusted memory (lost DMA).
	DroppedWrite
	// TornWrite lands only the first half of a protected write's bytes,
	// leaving the rest stale (partial/torn write).
	TornWrite
)

func (k FaultKind) String() string {
	switch k {
	case BitFlip:
		return "bit-flip"
	case Rollback:
		return "rollback"
	case DroppedWrite:
		return "dropped-write"
	case TornWrite:
		return "torn-write"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// rollbackSnapshots is how many pages a Rollback fault records when it
// arms; at replay time the first one whose content has since changed is
// restored, so the replay observably rolls state back even if some
// snapshotted pages were never written again.
const rollbackSnapshots = 8

// MemFault schedules one memory fault. AtOp is the protected-operation
// count at which the fault arms. Write-path faults (DroppedWrite,
// TornWrite) fire on the first eligible protected write after arming;
// out-of-band faults (BitFlip, Rollback) fire on the first operation
// boundary after arming. ReplayAfter (Rollback only) is how many further
// operations separate the snapshot from the stale-image replay; zero
// means 128.
type MemFault struct {
	Kind        FaultKind
	AtOp        uint64
	ReplayAfter uint64
}

// Injected records one fault that actually fired.
type Injected struct {
	Kind FaultKind
	Op   uint64 // protected-op count when it fired
	Page uint64
	Slot int // -1 when the fault targets a whole page
}

func (i Injected) String() string {
	return fmt.Sprintf("%v@op%d page=%d slot=%d", i.Kind, i.Op, i.Page, i.Slot)
}

// replay is an armed Rollback waiting for its fire op.
type replay struct {
	fireAt uint64
	snaps  []*vmem.PageImage
}

// Injector is the deterministic memory-fault injector. It implements
// vmem.Hook; install it with Attach. All faults are scheduled up front
// (New) and fire at most once.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	mem     *vmem.Memory
	pending []MemFault
	replays []*replay
	fired   []Injected
	ops     uint64 // last op count seen by OpDone
	inHook  bool   // guards against re-entrant OpDone from our own Gets
}

// New builds an injector with a deterministic schedule. The seed drives
// every victim-selection decision.
func New(seed int64, faults ...MemFault) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed))}
	in.pending = append(in.pending, faults...)
	sort.SliceStable(in.pending, func(i, j int) bool { return in.pending[i].AtOp < in.pending[j].AtOp })
	return in
}

// Attach installs the injector as the memory's fault hook.
func (in *Injector) Attach(m *vmem.Memory) {
	in.mu.Lock()
	in.mem = m
	in.mu.Unlock()
	m.SetHook(in)
}

// Detach removes the injector from its memory.
func (in *Injector) Detach() {
	in.mu.Lock()
	m := in.mem
	in.mem = nil
	in.mu.Unlock()
	if m != nil {
		m.SetHook(nil)
	}
}

// Fired returns the faults that have fired so far, in firing order.
func (in *Injector) Fired() []Injected {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Injected(nil), in.fired...)
}

// MutateWrite implements vmem.Hook: it fires armed DroppedWrite/TornWrite
// faults on eligible protected writes. Called under the page lock; it must
// not (and does not) call back into the memory.
func (in *Injector) MutateWrite(pageID uint64, slot int, old, intended []byte) []byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.pending {
		if f.AtOp > in.ops {
			break // schedule is sorted; nothing further is armed yet
		}
		switch f.Kind {
		case DroppedWrite:
			// Droppable only when the old image can be put back in place.
			if len(old) != len(intended) || bytesEqual(old, intended) {
				continue
			}
			in.pending = append(in.pending[:i], in.pending[i+1:]...)
			in.fired = append(in.fired, Injected{DroppedWrite, in.ops, pageID, slot})
			return append([]byte(nil), old...)
		case TornWrite:
			if len(intended) < 2 {
				continue
			}
			torn := append([]byte(nil), intended...)
			half := len(torn) / 2
			if len(old) == len(intended) {
				copy(torn[half:], old[half:])
			} else {
				for j := half; j < len(torn); j++ {
					torn[j] ^= 0x55
				}
			}
			if bytesEqual(torn, intended) {
				torn[len(torn)-1] ^= 0xA5
			}
			in.pending = append(in.pending[:i], in.pending[i+1:]...)
			in.fired = append(in.fired, Injected{TornWrite, in.ops, pageID, slot})
			return torn
		}
	}
	return intended
}

// OpDone implements vmem.Hook: it advances the operation clock and fires
// armed out-of-band faults (BitFlip, Rollback snapshots and replays).
// Called with all memory locks released.
func (in *Injector) OpDone(ops uint64) {
	in.mu.Lock()
	if in.inHook || in.mem == nil {
		in.mu.Unlock()
		return
	}
	in.ops = ops
	var flips int
	var arms []MemFault
	if len(in.pending) > 0 && in.pending[0].AtOp <= ops {
		keep := in.pending[:0]
		for _, f := range in.pending {
			switch {
			case f.AtOp > ops:
				keep = append(keep, f)
			case f.Kind == BitFlip:
				flips++
			case f.Kind == Rollback:
				arms = append(arms, f)
			default:
				// Write-path faults stay pending for MutateWrite.
				keep = append(keep, f)
			}
		}
		in.pending = keep
	}
	var due []*replay
	rest := in.replays[:0]
	for _, r := range in.replays {
		if r.fireAt <= ops {
			due = append(due, r)
		} else {
			rest = append(rest, r)
		}
	}
	in.replays = rest
	mem := in.mem
	in.inHook = true
	in.mu.Unlock()

	for i := 0; i < flips; i++ {
		in.fireBitFlip(mem, ops)
	}
	for _, f := range arms {
		in.armRollback(mem, f, ops)
	}
	var requeue []*replay
	for _, r := range due {
		if !in.fireRollback(mem, r, ops) {
			// No snapshotted page has changed yet; check again later.
			r.fireAt = ops + 64
			requeue = append(requeue, r)
		}
	}

	in.mu.Lock()
	in.inHook = false
	in.replays = append(in.replays, requeue...)
	in.mu.Unlock()
}

// victimCell picks a deterministic random live cell. Returns ok=false when
// the memory holds no suitable record.
func (in *Injector) victimCell(m *vmem.Memory) (page uint64, slot int, rec []byte, ok bool) {
	ids := sortedPageIDs(m)
	if len(ids) == 0 {
		return 0, 0, nil, false
	}
	in.mu.Lock()
	start := in.rng.Intn(len(ids))
	in.mu.Unlock()
	for off := 0; off < len(ids); off++ {
		pid := ids[(start+off)%len(ids)]
		found := -1
		var data []byte
		_ = m.Slots(pid, func(s int, r []byte) bool {
			if len(r) == 0 {
				return true
			}
			found, data = s, r
			return false
		})
		if found >= 0 {
			return pid, found, data, true
		}
	}
	return 0, 0, nil, false
}

// fireBitFlip flips one bit of a random live record, then touches the cell
// through the protected read path so the corrupt image is guaranteed to
// meet the read set within the current epoch (the same move the tamper
// demo makes: detection is only defined for data the application reads or
// verification scans).
func (in *Injector) fireBitFlip(m *vmem.Memory, ops uint64) {
	page, slot, rec, ok := in.victimCell(m)
	if !ok {
		return
	}
	in.mu.Lock()
	bit := in.rng.Intn(len(rec) * 8)
	in.mu.Unlock()
	rec[bit/8] ^= 1 << (bit % 8)
	if err := m.TamperRecord(page, slot, rec); err != nil {
		return
	}
	_, _ = m.Get(page, slot)
	in.mu.Lock()
	in.fired = append(in.fired, Injected{BitFlip, ops, page, slot})
	in.mu.Unlock()
}

// armRollback snapshots a handful of random pages for a later replay.
func (in *Injector) armRollback(m *vmem.Memory, f MemFault, ops uint64) {
	ids := sortedPageIDs(m)
	if len(ids) == 0 {
		return
	}
	in.mu.Lock()
	in.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	in.mu.Unlock()
	n := rollbackSnapshots
	if n > len(ids) {
		n = len(ids)
	}
	r := &replay{fireAt: ops + f.ReplayAfter}
	if f.ReplayAfter == 0 {
		r.fireAt = ops + 128
	}
	for _, pid := range ids[:n] {
		if img, err := m.SnapshotPageRaw(pid); err == nil {
			r.snaps = append(r.snaps, img)
		}
	}
	if len(r.snaps) > 0 {
		in.mu.Lock()
		in.replays = append(in.replays, r)
		in.mu.Unlock()
	}
}

// fireRollback replays the first snapshotted page whose content has
// changed since the snapshot, then touches a live cell of the restored
// page. Reports false if every snapshot is still current (nothing to roll
// back yet).
func (in *Injector) fireRollback(m *vmem.Memory, r *replay, ops uint64) bool {
	for _, img := range r.snaps {
		cur, err := m.SnapshotPageRaw(img.ID)
		if err != nil {
			continue // page freed since the snapshot
		}
		if bytesEqual(cur.Buf, img.Buf) && uintsEqual(cur.Vers, img.Vers) {
			continue
		}
		if err := m.RestorePageRaw(img); err != nil {
			continue
		}
		slot := -1
		_ = m.Slots(img.ID, func(s int, rec []byte) bool {
			slot = s
			return false
		})
		if slot >= 0 {
			_, _ = m.Get(img.ID, slot)
		}
		in.mu.Lock()
		in.fired = append(in.fired, Injected{Rollback, ops, img.ID, slot})
		in.mu.Unlock()
		return true
	}
	return false
}

func sortedPageIDs(m *vmem.Memory) []uint64 {
	ids := m.PageIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func uintsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Interface conformance pin.
var _ vmem.Hook = (*Injector)(nil)
