package vmem

import "testing"

func TestAlarmIsolatedPerMemoryInstance(t *testing.T) {
	a := newMem(t, Config{FullScan: true})
	b := newMem(t, Config{FullScan: true})
	pid, _ := a.NewPage()
	slot, _ := a.Insert(pid, []byte("x"))
	a.TamperRecord(pid, slot, []byte("y"))
	if err := a.VerifyAll(); err == nil {
		t.Fatal("tamper undetected")
	}
	if err := b.VerifyAll(); err != nil {
		t.Fatalf("unrelated instance alarmed: %v", err)
	}
}

func TestUpdateOversizeReportsPageFull(t *testing.T) {
	m := newMem(t, Config{PageSize: 256})
	pid, _ := m.NewPage()
	slot, err := m.Insert(pid, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(pid, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	// Growing the first record beyond the page must fail cleanly and
	// leave the sets balanced.
	if err := m.Update(pid, slot, make([]byte, 200)); err == nil {
		t.Fatal("oversize update succeeded")
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("failed update unbalanced the sets: %v", err)
	}
}

func TestMetadataModeOversizeUpdateStaysBalanced(t *testing.T) {
	// The failed-update path compacts internally; with metadata
	// verification on, the relocation must still be folded (regression for
	// the foldMetaSolo path).
	m := newMem(t, Config{PageSize: 512, VerifyMetadata: true})
	pid, _ := m.NewPage()
	var slots []int
	for {
		s, err := m.Insert(pid, make([]byte, 60))
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	// Free alternating slots so compaction will be attempted.
	for i := 0; i < len(slots); i += 2 {
		if err := m.Delete(pid, slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Oversize update on a survivor triggers compact-then-fail.
	if err := m.Update(pid, slots[1], make([]byte, 400)); err == nil {
		t.Fatal("oversize update unexpectedly fit")
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("metadata sets unbalanced after failed update: %v", err)
	}
}

func TestStatsFastScanAccounting(t *testing.T) {
	m := newMem(t, Config{})
	for i := 0; i < 5; i++ {
		pid, _ := m.NewPage()
		m.Insert(pid, []byte("d"))
	}
	m.VerifyAll()
	m.VerifyAll() // all pages untouched now
	s := m.Stats()
	if s.FastScans == 0 {
		t.Fatal("no fast scans recorded for untouched pages")
	}
	if s.Rotations < 2 {
		t.Fatalf("rotations = %d", s.Rotations)
	}
}
