package vmem

import (
	"errors"
	"testing"

	"veridb/internal/enclave"
)

func TestEPCExhaustionSurfaces(t *testing.T) {
	// A tiny EPC budget: partition state fits, page bookkeeping soon
	// doesn't. This is the constraint that forces the database out of the
	// enclave in the first place (§3.3).
	enc, err := enclave.New(enclave.Config{EPCBytes: 520})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(enc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	allocated := 0
	for i := 0; i < 100; i++ {
		if _, err := m.NewPage(); err != nil {
			lastErr = err
			break
		}
		allocated++
	}
	if lastErr == nil {
		t.Fatal("100 pages fit in a 520-byte EPC budget")
	}
	if !errors.Is(lastErr, enclave.ErrEPCExhausted) {
		t.Fatalf("err = %v, want ErrEPCExhausted", lastErr)
	}
	if allocated == 0 {
		t.Fatal("not even one page fit")
	}
}

func TestPartitionStateRejectedWhenEPCTooSmall(t *testing.T) {
	enc, err := enclave.New(enclave.Config{EPCBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(enc, Config{Partitions: 4}); !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("err = %v, want ErrEPCExhausted", err)
	}
}

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
