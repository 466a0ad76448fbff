// Package page implements the slotted, Postgres-style page layout that
// VeriDB's storage layer is built on (paper §4.2: "the structure of a
// VeriDB page resembles classic page designs in database systems like
// Postgres"). A page is a fixed-size byte array holding
//
//   - a header with space-accounting metadata,
//   - a line-pointer (slot) directory growing from the front, and
//   - record bytes growing from the back.
//
// Records are addressed by stable slot numbers; deleting a record
// tombstones its slot without moving other records (the deferred-
// reclamation optimisation of §4.3), and Compact gathers the surviving
// records back into a contiguous region while preserving slot numbers.
//
// This package is pure layout: it knows nothing about verification. The
// vmem package layers read-write set maintenance on top.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

const (
	// HeaderSize is the byte length of the page header.
	HeaderSize = 16
	// SlotSize is the byte length of one line-pointer entry.
	SlotSize = 8
	// DefaultSize is the default page capacity, matching the paper's 8 KB
	// example (§4.3).
	DefaultSize = 8192
	// MaxSlots bounds the slot directory so slot numbers fit in 15 bits of
	// a vmem address.
	MaxSlots = 1 << 15
)

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("page: not enough free space")
	ErrBadSlot     = errors.New("page: slot out of range")
	ErrDeadSlot    = errors.New("page: slot is not live")
	ErrTooLarge    = errors.New("page: record larger than page capacity")
	ErrEmptyRecord = errors.New("page: empty record")
)

// Header field offsets within the page buffer.
const (
	offSlotCount = 0  // uint16: number of slot-directory entries
	offFreeEnd   = 2  // uint32: records occupy [freeEnd, len(buf))
	offLiveBytes = 6  // uint32: bytes held by live records
	offDeadBytes = 10 // uint32: bytes held by tombstoned records
	offFlags     = 14 // uint16: reserved
)

// Page is a slotted page over a private byte buffer.
type Page struct {
	buf []byte
}

// New allocates an empty page of the given size.
func New(size int) *Page {
	if size < HeaderSize+SlotSize {
		size = DefaultSize
	}
	p := &Page{buf: make([]byte, size)}
	p.setFreeEnd(uint32(size))
	return p
}

// Size returns the page capacity in bytes.
func (p *Page) Size() int { return len(p.buf) }

func (p *Page) slotCount() int      { return int(binary.LittleEndian.Uint16(p.buf[offSlotCount:])) }
func (p *Page) setSlotCount(n int)  { binary.LittleEndian.PutUint16(p.buf[offSlotCount:], uint16(n)) }
func (p *Page) freeEnd() uint32     { return binary.LittleEndian.Uint32(p.buf[offFreeEnd:]) }
func (p *Page) setFreeEnd(v uint32) { binary.LittleEndian.PutUint32(p.buf[offFreeEnd:], v) }
func (p *Page) liveBytes() uint32   { return binary.LittleEndian.Uint32(p.buf[offLiveBytes:]) }
func (p *Page) setLive(v uint32)    { binary.LittleEndian.PutUint32(p.buf[offLiveBytes:], v) }
func (p *Page) deadBytes() uint32   { return binary.LittleEndian.Uint32(p.buf[offDeadBytes:]) }
func (p *Page) setDead(v uint32)    { binary.LittleEndian.PutUint32(p.buf[offDeadBytes:], v) }

// slotBase returns the buffer offset of slot i's line pointer.
func slotBase(i int) int { return HeaderSize + i*SlotSize }

// slot reads line pointer i: record offset and length. offset==0 marks a
// dead or never-used slot (offset 0 lies inside the header, so it can never
// be a valid record position).
func (p *Page) slot(i int) (off, length uint32) {
	b := slotBase(i)
	return binary.LittleEndian.Uint32(p.buf[b:]), binary.LittleEndian.Uint32(p.buf[b+4:])
}

func (p *Page) setSlot(i int, off, length uint32) {
	b := slotBase(i)
	binary.LittleEndian.PutUint32(p.buf[b:], off)
	binary.LittleEndian.PutUint32(p.buf[b+4:], length)
}

// dirEnd returns the buffer offset one past the slot directory.
func (p *Page) dirEnd() uint32 { return uint32(slotBase(p.slotCount())) }

// ContiguousFree returns the bytes available between the slot directory and
// the record heap, i.e. what Insert can use without compaction.
func (p *Page) ContiguousFree() int { return int(p.freeEnd()) - int(p.dirEnd()) }

// ReclaimableBytes returns bytes held by tombstoned records that Compact
// would recover.
func (p *Page) ReclaimableBytes() int { return int(p.deadBytes()) }

// SlotCount returns the number of slot-directory entries (live and dead).
func (p *Page) SlotCount() int { return p.slotCount() }

// LiveRecords counts live slots.
func (p *Page) LiveRecords() int {
	n := 0
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off != 0 {
			n++
		}
	}
	return n
}

// SlotLive reports whether slot i currently holds a record.
func (p *Page) SlotLive(i int) bool {
	if i < 0 || i >= p.slotCount() {
		return false
	}
	off, _ := p.slot(i)
	return off != 0
}

// Get returns the record bytes stored in slot i. The returned slice aliases
// the page buffer; callers that retain it must copy.
func (p *Page) Get(i int) ([]byte, error) {
	if i < 0 || i >= p.slotCount() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.slotCount())
	}
	off, length := p.slot(i)
	if off == 0 {
		return nil, fmt.Errorf("%w: %d", ErrDeadSlot, i)
	}
	return p.buf[off : off+length], nil
}

// Insert stores rec in the page, reusing a dead slot if one exists, and
// returns the slot number. It fails with ErrPageFull when neither the
// contiguous free region nor compaction can produce enough space; callers
// then try another page.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) == 0 {
		return 0, ErrEmptyRecord
	}
	if len(rec) > len(p.buf)-HeaderSize-SlotSize {
		return 0, fmt.Errorf("%w: %d bytes into %d-byte page", ErrTooLarge, len(rec), len(p.buf))
	}
	if slot, ok := p.tryInsert(rec); ok {
		return slot, nil
	}
	// Compaction can only help when the combined free space would fit the
	// record; otherwise fail fast rather than moving bytes for nothing.
	if p.ContiguousFree()+int(p.deadBytes()) < len(rec)+SlotSize {
		return 0, ErrPageFull
	}
	// Deferred reclamation means free space may be fragmented across
	// tombstones; compaction can recover it (§4.3).
	p.Compact()
	if slot, ok := p.tryInsert(rec); ok {
		return slot, nil
	}
	return 0, ErrPageFull
}

// tryInsert places rec using only the contiguous free region, reusing a
// dead slot when one exists. It reports false when the page, as currently
// laid out, cannot hold the record.
func (p *Page) tryInsert(rec []byte) (int, bool) {
	slot := -1
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off == 0 {
			slot = i
			break
		}
	}
	needDir := 0
	if slot == -1 {
		if p.slotCount() >= MaxSlots {
			return 0, false
		}
		needDir = SlotSize
	}
	if p.ContiguousFree()-needDir < len(rec) {
		return 0, false
	}
	if slot == -1 {
		slot = p.slotCount()
		p.setSlotCount(slot + 1)
	}
	off := p.freeEnd() - uint32(len(rec))
	copy(p.buf[off:], rec)
	p.setFreeEnd(off)
	p.setSlot(slot, off, uint32(len(rec)))
	p.setLive(p.liveBytes() + uint32(len(rec)))
	return slot, true
}

// Delete tombstones slot i without moving any bytes; the space becomes
// reclaimable at the next Compact (deferred reclamation, §4.3).
func (p *Page) Delete(i int) error {
	if i < 0 || i >= p.slotCount() {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.slotCount())
	}
	off, length := p.slot(i)
	if off == 0 {
		return fmt.Errorf("%w: %d", ErrDeadSlot, i)
	}
	p.setSlot(i, 0, 0)
	p.setLive(p.liveBytes() - length)
	p.setDead(p.deadBytes() + length)
	return nil
}

// Update replaces the record in slot i. If the new record fits in the old
// record's space it is written in place; otherwise the old space is
// tombstoned and the record re-inserted at the heap frontier under the same
// slot number. Returns ErrPageFull if the page cannot hold the new size, in
// which case the caller relocates the record to another page (paper §4.2:
// an oversized update "will need to perform a delete followed by an insert,
// which may happen on a different page").
func (p *Page) Update(i int, rec []byte) error {
	if err := p.Reserve(i, len(rec)); err != nil {
		return err
	}
	off, length := p.slot(i)
	if uint32(len(rec)) <= length {
		copy(p.buf[off:], rec)
		if uint32(len(rec)) < length {
			// Shrink in place; trailing bytes become dead space.
			p.setSlot(i, off, uint32(len(rec)))
			p.setLive(p.liveBytes() - (length - uint32(len(rec))))
			p.setDead(p.deadBytes() + (length - uint32(len(rec))))
		}
		return nil
	}
	newOff := p.freeEnd() - uint32(len(rec))
	copy(p.buf[newOff:], rec)
	p.setFreeEnd(newOff)
	p.setSlot(i, newOff, uint32(len(rec)))
	p.setLive(p.liveBytes() + uint32(len(rec)) - length)
	p.setDead(p.deadBytes() + length)
	return nil
}

// Reserve readies slot i for an Update to an n-byte image and fails as
// that Update would: ErrBadSlot, ErrDeadSlot, ErrEmptyRecord or
// ErrPageFull. An image that outgrows the record's space needs fresh heap
// space; when the contiguous free region is too small the page is
// compacted with the old image still live (so its slot survives), which
// may move records even when the answer is ErrPageFull. After a nil
// return, Update(i, rec) with len(rec) == n writes without moving any
// other record, and the old image stays readable through Get until then.
func (p *Page) Reserve(i, n int) error {
	if i < 0 || i >= p.slotCount() {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.slotCount())
	}
	off, length := p.slot(i)
	if off == 0 {
		return fmt.Errorf("%w: %d", ErrDeadSlot, i)
	}
	if n == 0 {
		return ErrEmptyRecord
	}
	if n <= int(length) || p.ContiguousFree() >= n {
		return nil
	}
	p.Compact()
	if p.ContiguousFree() < n {
		return ErrPageFull
	}
	return nil
}

// compactScratch lends Compact the buffer it lays records out in, so a
// compaction allocates nothing once the pool holds a page's worth.
var compactScratch = sync.Pool{New: func() any { return new([]byte) }}

// Compact rewrites all live records into a contiguous region at the back of
// the page, preserving slot numbers, and zeroes the dead-byte counter. It
// is what the paper runs as a side task of the verification scan (§4.3).
// Records land in slot order from the end of the page down. The leading
// run of records already where that layout puts them stays put; the rest
// are laid out in one scratch buffer first, because a destination may
// overlap another record's source, and copied back in one piece.
func (p *Page) Compact() {
	n := p.slotCount()
	end := uint32(len(p.buf))
	first := 0
	for ; first < n; first++ {
		off, length := p.slot(first)
		if off == 0 {
			continue
		}
		if off != end-length {
			break
		}
		end = off
	}
	if first < n {
		total := uint32(0)
		for i := first; i < n; i++ {
			_, length := p.slot(i)
			total += length
		}
		bp := compactScratch.Get().(*[]byte)
		if uint32(cap(*bp)) < total {
			*bp = make([]byte, total)
		}
		scratch := (*bp)[:total]
		at := total // scratch[k] lands at end-total+k
		for i := first; i < n; i++ {
			off, length := p.slot(i)
			if off == 0 {
				continue
			}
			at -= length
			copy(scratch[at:], p.buf[off:off+length])
			p.setSlot(i, end-total+at, length)
		}
		end -= total
		copy(p.buf[end:], scratch)
		compactScratch.Put(bp)
	}
	p.setFreeEnd(end)
	p.setDead(0)
	// Drop trailing dead slots so the directory can shrink.
	for n > 0 {
		if off, _ := p.slot(n - 1); off != 0 {
			break
		}
		n--
	}
	p.setSlotCount(n)
}

// Slots iterates live slots in slot order, invoking fn with the slot number
// and record bytes (aliasing the buffer). Iteration stops if fn returns
// false.
func (p *Page) Slots(fn func(slot int, rec []byte) bool) {
	for i := 0; i < p.slotCount(); i++ {
		off, length := p.slot(i)
		if off == 0 {
			continue
		}
		if !fn(i, p.buf[off:off+length]) {
			return
		}
	}
}

// SlotPointerBytes returns the raw line-pointer entry for slot i. The
// storage layer treats line pointers as metadata cells when metadata
// verification is enabled (§4.3 discusses excluding them).
func (p *Page) SlotPointerBytes(i int) []byte {
	if i < 0 || i >= p.slotCount() {
		return nil
	}
	b := slotBase(i)
	return p.buf[b : b+SlotSize]
}

// RawBuffer exposes the underlying byte buffer. It exists so tests and the
// tamper demo can mutate memory the way an adversary with host access would
// (bypassing every protected interface); regular code only reads the
// metadata cells through it (vmem copies them to fold their changes) and
// must never write through it.
func (p *Page) RawBuffer() []byte { return p.buf }
