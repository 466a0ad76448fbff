package page

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertGetRoundTrip(t *testing.T) {
	p := New(DefaultSize)
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	slots := make([]int, len(recs))
	for i, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = s
	}
	for i, r := range recs {
		got, err := p.Get(slots[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r) {
			t.Fatalf("slot %d: got %q want %q", slots[i], got, r)
		}
	}
	if p.LiveRecords() != 3 {
		t.Fatalf("LiveRecords = %d, want 3", p.LiveRecords())
	}
}

func TestInsertEmptyRecord(t *testing.T) {
	p := New(DefaultSize)
	if _, err := p.Insert(nil); !errors.Is(err, ErrEmptyRecord) {
		t.Fatalf("err = %v, want ErrEmptyRecord", err)
	}
}

func TestInsertTooLarge(t *testing.T) {
	p := New(256)
	if _, err := p.Insert(make([]byte, 512)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestGetBadSlot(t *testing.T) {
	p := New(DefaultSize)
	if _, err := p.Get(0); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
	if _, err := p.Get(-1); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
}

func TestDeleteTombstonesWithoutMoving(t *testing.T) {
	p := New(DefaultSize)
	s1, _ := p.Insert([]byte("first"))
	s2, _ := p.Insert([]byte("second"))
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s1); !errors.Is(err, ErrDeadSlot) {
		t.Fatalf("deleted slot readable: %v", err)
	}
	got, err := p.Get(s2)
	if err != nil || !bytes.Equal(got, []byte("second")) {
		t.Fatalf("survivor corrupted: %q, %v", got, err)
	}
	if p.ReclaimableBytes() != len("first") {
		t.Fatalf("ReclaimableBytes = %d", p.ReclaimableBytes())
	}
	if err := p.Delete(s1); !errors.Is(err, ErrDeadSlot) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestSlotReuseAfterDelete(t *testing.T) {
	p := New(DefaultSize)
	s1, _ := p.Insert([]byte("aaa"))
	p.Insert([]byte("bbb"))
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	s3, err := p.Insert([]byte("ccc"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatalf("dead slot not reused: got %d want %d", s3, s1)
	}
}

func TestUpdateInPlace(t *testing.T) {
	p := New(DefaultSize)
	s, _ := p.Insert([]byte("longvalue"))
	if err := p.Update(s, []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if !bytes.Equal(got, []byte("short")) {
		t.Fatalf("got %q", got)
	}
	if p.ReclaimableBytes() != len("longvalue")-len("short") {
		t.Fatalf("shrink did not account dead bytes: %d", p.ReclaimableBytes())
	}
}

func TestUpdateGrow(t *testing.T) {
	p := New(DefaultSize)
	s, _ := p.Insert([]byte("tiny"))
	big := bytes.Repeat([]byte("x"), 100)
	if err := p.Update(s, big); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if !bytes.Equal(got, big) {
		t.Fatal("grown record corrupted")
	}
}

func TestUpdateDeadSlot(t *testing.T) {
	p := New(DefaultSize)
	s, _ := p.Insert([]byte("x"))
	p.Delete(s)
	if err := p.Update(s, []byte("y")); !errors.Is(err, ErrDeadSlot) {
		t.Fatalf("err = %v", err)
	}
}

func TestPageFull(t *testing.T) {
	p := New(256)
	var n int
	for {
		if _, err := p.Insert(bytes.Repeat([]byte("r"), 20)); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no record fit in a 256-byte page")
	}
}

func TestInsertCompactsFragmentedSpace(t *testing.T) {
	p := New(512)
	var slots []int
	rec := bytes.Repeat([]byte("a"), 40)
	for {
		s, err := p.Insert(rec)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	// Free every other record: contiguous space stays ~0 but dead space grows.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("b"), 60)
	s, err := p.Insert(big)
	if err != nil {
		t.Fatalf("insert after fragmentation failed: %v (free=%d dead=%d)",
			err, p.ContiguousFree(), p.ReclaimableBytes())
	}
	got, _ := p.Get(s)
	if !bytes.Equal(got, big) {
		t.Fatal("record corrupted after implicit compaction")
	}
	// Survivors intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Get(slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("survivor %d corrupted after compaction", slots[i])
		}
	}
}

func TestCompactPreservesSlotsAndReclaims(t *testing.T) {
	p := New(DefaultSize)
	s1, _ := p.Insert([]byte("one"))
	s2, _ := p.Insert([]byte("two"))
	s3, _ := p.Insert([]byte("three"))
	p.Delete(s2)
	before := p.ContiguousFree()
	p.Compact()
	if p.ReclaimableBytes() != 0 {
		t.Fatalf("dead bytes remain after Compact: %d", p.ReclaimableBytes())
	}
	if p.ContiguousFree() <= before {
		t.Fatalf("Compact did not grow free space: %d -> %d", before, p.ContiguousFree())
	}
	for s, want := range map[int]string{s1: "one", s3: "three"} {
		got, err := p.Get(s)
		if err != nil || !bytes.Equal(got, []byte(want)) {
			t.Fatalf("slot %d after Compact: %q, %v", s, got, err)
		}
	}
	if p.SlotLive(s2) {
		t.Fatal("deleted slot live after Compact")
	}
}

func TestCompactDropsTrailingDeadSlots(t *testing.T) {
	p := New(DefaultSize)
	p.Insert([]byte("keep"))
	s2, _ := p.Insert([]byte("drop"))
	p.Delete(s2)
	p.Compact()
	if p.SlotCount() != 1 {
		t.Fatalf("SlotCount = %d, want 1", p.SlotCount())
	}
}

func TestSlotsIteration(t *testing.T) {
	p := New(DefaultSize)
	p.Insert([]byte("a"))
	s2, _ := p.Insert([]byte("b"))
	p.Insert([]byte("c"))
	p.Delete(s2)
	var seen []string
	p.Slots(func(slot int, rec []byte) bool {
		seen = append(seen, string(rec))
		return true
	})
	if fmt.Sprint(seen) != "[a c]" {
		t.Fatalf("Slots visited %v", seen)
	}
	// Early termination.
	count := 0
	p.Slots(func(int, []byte) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestSlotPointerBytes(t *testing.T) {
	p := New(DefaultSize)
	s, _ := p.Insert([]byte("rec"))
	ptr := p.SlotPointerBytes(s)
	if len(ptr) != SlotSize {
		t.Fatalf("pointer length %d", len(ptr))
	}
	if p.SlotPointerBytes(99) != nil {
		t.Fatal("out-of-range pointer not nil")
	}
}

// TestSpaceAccountingInvariant checks, under a random workload, that the
// header's space accounting always matches the slot directory's ground
// truth and that all live records stay readable and correct.
func TestSpaceAccountingInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(1024)
		shadow := map[int][]byte{} // slot -> expected record
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0: // insert
				rec := make([]byte, 1+rng.Intn(64))
				rng.Read(rec)
				if s, err := p.Insert(rec); err == nil {
					shadow[s] = rec
				}
			case 1: // delete random live slot
				for s := range shadow {
					if err := p.Delete(s); err != nil {
						return false
					}
					delete(shadow, s)
					break
				}
			case 2: // update random live slot
				for s := range shadow {
					rec := make([]byte, 1+rng.Intn(64))
					rng.Read(rec)
					if err := p.Update(s, rec); err == nil {
						shadow[s] = rec
					} else if !errors.Is(err, ErrPageFull) {
						return false
					}
					break
				}
			}
			if op%37 == 0 {
				p.Compact()
			}
		}
		if p.LiveRecords() != len(shadow) {
			return false
		}
		for s, want := range shadow {
			got, err := p.Get(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert500B(b *testing.B) {
	rec := make([]byte, 500)
	p := New(DefaultSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Insert(rec); err != nil {
			p = New(DefaultSize)
			i--
		}
	}
}

func BenchmarkGet(b *testing.B) {
	p := New(DefaultSize)
	s, _ := p.Insert(make([]byte, 500))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get(s); err != nil {
			b.Fatal(err)
		}
	}
}

// refCompact is Compact as it was written before it laid records out
// through a scratch buffer: every live record copied out on its own, then
// written back in slot order from the end of the page down. It is the
// reference the differential tests below hold Compact to.
func refCompact(p *Page) {
	type liveRec struct {
		slot int
		data []byte
	}
	var recs []liveRec
	for i := 0; i < p.slotCount(); i++ {
		off, length := p.slot(i)
		if off != 0 {
			recs = append(recs, liveRec{i, append([]byte(nil), p.buf[off:off+length]...)})
		}
	}
	end := uint32(len(p.buf))
	for _, r := range recs {
		end -= uint32(len(r.data))
		copy(p.buf[end:], r.data)
		p.setSlot(r.slot, end, uint32(len(r.data)))
	}
	p.setFreeEnd(end)
	p.setDead(0)
	n := p.slotCount()
	for n > 0 {
		if off, _ := p.slot(n - 1); off != 0 {
			break
		}
		n--
	}
	p.setSlotCount(n)
}

// refInsert and refUpdate are Insert and Update with refCompact in place
// of Compact, so a reference page can follow a tested page op for op.
func refInsert(p *Page, rec []byte) (int, error) {
	if slot, ok := p.tryInsert(rec); ok {
		return slot, nil
	}
	if p.ContiguousFree()+int(p.deadBytes()) < len(rec)+SlotSize {
		return 0, ErrPageFull
	}
	refCompact(p)
	if slot, ok := p.tryInsert(rec); ok {
		return slot, nil
	}
	return 0, ErrPageFull
}

func refUpdate(p *Page, i int, rec []byte) error {
	if _, length := p.slot(i); len(rec) > int(length) && p.ContiguousFree() < len(rec) {
		refCompact(p)
	}
	return p.Update(i, rec) // compacts no further: the room is made or cannot be
}

func clonePage(p *Page) *Page { return &Page{buf: append([]byte(nil), p.buf...)} }

// TestCompactMatchesCopyOut drives seeded random inserts, deletes, growing
// and shrinking updates and explicit compactions against a page and a
// reference page that compacts by copy-out, and requires the two buffers
// to be byte-identical after every operation: the same slot-order layout,
// the same header, and the same stale bytes in the free gap.
func TestCompactMatchesCopyOut(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New(1024)
		ref := clonePage(p)
		var live []int
		for op := 0; op < 400; op++ {
			rec := make([]byte, 1+rng.Intn(96))
			rng.Read(rec)
			var what string
			var err, refErr error
			switch k := rng.Intn(10); {
			case k < 4:
				what = "insert"
				var s, rs int
				s, err = p.Insert(rec)
				rs, refErr = refInsert(ref, rec)
				if err == nil && s == rs {
					live = append(live, s)
				}
			case k < 6 && len(live) > 0:
				what = "delete"
				j := rng.Intn(len(live))
				err, refErr = p.Delete(live[j]), ref.Delete(live[j])
				live = append(live[:j], live[j+1:]...)
			case k < 9 && len(live) > 0:
				what = "update"
				s := live[rng.Intn(len(live))]
				if cur, _ := p.Get(s); k == 8 && len(cur) > 1 {
					rec = make([]byte, 1+rng.Intn(len(cur)-1)) // shrink in place
					rng.Read(rec)
				}
				err, refErr = p.Update(s, rec), refUpdate(ref, s, rec)
			default:
				what = "compact"
				p.Compact()
				refCompact(ref)
			}
			if !errors.Is(err, refErr) && (err == nil || refErr == nil || err.Error() != refErr.Error()) {
				t.Fatalf("seed %d op %d %s: %v, reference %v", seed, op, what, err, refErr)
			}
			if !bytes.Equal(p.buf, ref.buf) {
				t.Fatalf("seed %d op %d %s: page bytes differ from the copy-out reference", seed, op, what)
			}
		}
	}
}

// TestCompactOverlappingMove pins the case a copy-free compaction gets
// wrong: a record whose destination overlaps another live record's
// source. Slot 0 grows, moving below slot 1; compaction puts slot 0 back
// at the end of the page, over the first bytes of slot 1's image.
func TestCompactOverlappingMove(t *testing.T) {
	p := New(256)
	a, b := bytes.Repeat([]byte{'a'}, 10), bytes.Repeat([]byte{'b'}, 10)
	mustSlot := func(s int, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0, s1 := mustSlot(p.Insert(a)), mustSlot(p.Insert(b))
	grown := bytes.Repeat([]byte{'A'}, 20)
	if err := p.Update(s0, grown); err != nil {
		t.Fatal(err)
	}
	if off0, _ := p.slot(s0); int(off0) >= p.Size()-20 {
		t.Fatalf("setup: slot 0 at %d did not move below slot 1", off0)
	}
	ref := clonePage(p)
	p.Compact()
	refCompact(ref)
	if !bytes.Equal(p.buf, ref.buf) {
		t.Fatal("page bytes differ from the copy-out reference")
	}
	for s, want := range map[int][]byte{s0: grown, s1: b} {
		if got, err := p.Get(s); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("slot %d after Compact: %q, %v", s, got, err)
		}
	}
	if off0, _ := p.slot(s0); int(off0) != p.Size()-20 {
		t.Fatalf("slot 0 at %d after Compact, want %d", off0, p.Size()-20)
	}
}
