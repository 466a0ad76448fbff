package vmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"veridb/internal/enclave"
	"veridb/internal/page"
)

// loadRandomPages fills n pages with random records (some deleted again so
// pages carry dead slots and reclaimable space) and returns the page IDs.
func loadRandomPages(t testing.TB, m *Memory, n int, seed int64) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		pid, err := m.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
		var slots []int
		for j := 0; j < 20+rng.Intn(60); j++ {
			rec := make([]byte, 1+rng.Intn(48))
			rng.Read(rec)
			slot, err := m.Insert(pid, rec)
			if errors.Is(err, page.ErrPageFull) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			slots = append(slots, slot)
		}
		for _, s := range slots {
			if rng.Intn(5) == 0 {
				if err := m.Delete(pid, s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return pids
}

// TestParallelScanResidentMatchesSerial is the bit-identical property the
// XOR-fold parallelism rests on: VerifyAll over the same memory contents
// at GOMAXPROCS 1 and at 8 must produce identical resident digests (and
// identical, alarm-free epoch rotations). Runs across the configuration
// space because metadata mode changes the cells a page scan hashes.
func TestParallelScanResidentMatchesSerial(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{VerifyMetadata: true},
		{Partitions: 4},
		{Partitions: 4, VerifyMetadata: true},
		{PageSize: 1024},
	} {
		name := fmt.Sprintf("parts=%d,meta=%v,pagesize=%d", cfg.Partitions, cfg.VerifyMetadata, cfg.PageSize)
		t.Run(name, func(t *testing.T) {
			for trial := int64(0); trial < 3; trial++ {
				verifyAt := func(procs int) *Memory {
					m, err := New(enclave.NewForTest(42), cfg) // same seed → same PRF key
					if err != nil {
						t.Fatal(err)
					}
					loadRandomPages(t, m, 6, 100+trial)
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					if err := m.VerifyAll(); err != nil {
						t.Fatalf("pass at GOMAXPROCS %d: %v", procs, err)
					}
					return m
				}
				serial, parallel := verifyAt(1), verifyAt(8)
				s, p := serial.ResidentChecksum(), parallel.ResidentChecksum()
				if !s.Equal(&p) {
					t.Fatalf("trial %d: parallel resident checksum %v != serial %v", trial, p, s)
				}
				if s.Zero() {
					t.Fatal("checksum trivially zero: pages were not scanned")
				}
			}
		})
	}
}

// TestTamperDetectedUnderConcurrentVerifyAll tampers a page while a
// VerifyAll spread over eight goroutines is mid-pass over a partitioned
// memory, with protected operations running concurrently on other pages.
// Whichever epoch the tampered read lands in, the sticky alarm must be
// raised within two full passes that start after the tamper.
func TestTamperDetectedUnderConcurrentVerifyAll(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	m, err := New(enclave.NewForTest(7), Config{Partitions: 8, FullScan: true})
	if err != nil {
		t.Fatal(err)
	}
	pids := loadRandomPages(t, m, 24, 1)
	victim := pids[0]
	slot, err := m.Insert(victim, []byte("the-protected-balance"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("pre-tamper pass: %v", err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	// Concurrent mutators on non-victim pages: the pass must stay sound
	// under non-quiescent traffic.
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			<-start
			for {
				select {
				case <-stop:
					return
				default:
				}
				pid := pids[1+rng.Intn(len(pids)-1)]
				rec := make([]byte, 1+rng.Intn(32))
				rng.Read(rec)
				if s, err := m.Insert(pid, rec); err == nil {
					m.Get(pid, s)
				}
			}
		}(w)
	}
	// The tamperer strikes mid-pass.
	tampered := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(tampered)
		<-start
		time.Sleep(100 * time.Microsecond)
		if err := m.TamperRecord(victim, slot, []byte("the-corrupted-balance")); err != nil {
			t.Error(err)
		}
	}()

	close(start)
	// Passes race the tamper until it has landed — on a busy host the
	// tamperer can wake after any number of them — then two are guaranteed
	// to follow it (full-scan mode rescans every page, so the divergence
	// cannot stay hidden past the next complete epoch).
	var verr error
	for landed := false; !landed && verr == nil; {
		select {
		case <-tampered:
			landed = true
		default:
			verr = m.VerifyAll()
		}
	}
	for pass := 0; pass < 2 && verr == nil; pass++ {
		verr = m.VerifyAll()
	}
	close(stop)
	wg.Wait()
	if !errors.Is(verr, ErrTamperDetected) {
		t.Fatalf("concurrent verification missed tampering: %v", verr)
	}
	if err := m.Alarm(); !errors.Is(err, ErrTamperDetected) {
		t.Fatalf("alarm not sticky: %v", err)
	}
}

// TestTamperDetectedByBackgroundVerifierAcrossPartitions is the background
// variant: the one verifier goroutine, paced by ordinary traffic and
// moving from partition to partition, must raise the alarm after a direct
// memory write.
func TestTamperDetectedByBackgroundVerifierAcrossPartitions(t *testing.T) {
	m, err := New(enclave.NewForTest(9), Config{Partitions: 4, FullScan: true})
	if err != nil {
		t.Fatal(err)
	}
	pids := loadRandomPages(t, m, 8, 2)
	slot, err := m.Insert(pids[0], []byte("watched-value"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.TamperRecord(pids[0], slot, []byte("corrupt-value")); err != nil {
		t.Fatal(err)
	}
	if err := m.StartVerifier(1); err != nil {
		t.Fatal(err)
	}
	other, _ := m.NewPage()
	deadline := time.Now().Add(10 * time.Second)
	for m.Alarm() == nil && time.Now().Before(deadline) {
		m.Insert(other, []byte("traffic"))
		time.Sleep(50 * time.Microsecond)
	}
	m.StopVerifier()
	if err := m.Alarm(); !errors.Is(err, ErrTamperDetected) {
		t.Fatalf("background verifier missed tampering: %v", err)
	}
}

// TestConcurrentVerifyAllAndBackgroundVerifier drives foreground VerifyAll
// passes, the background verifier, and mutating traffic all at once on a
// clean memory: no false alarm and no deadlock.
func TestConcurrentVerifyAllAndBackgroundVerifier(t *testing.T) {
	m, err := New(enclave.NewForTest(11), Config{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	pids := loadRandomPages(t, m, 12, 3)
	if err := m.StartVerifier(20); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < 300; i++ {
				pid := pids[rng.Intn(len(pids))]
				rec := make([]byte, 1+rng.Intn(32))
				rng.Read(rec)
				if s, err := m.Insert(pid, rec); err == nil {
					m.Get(pid, s)
					m.Delete(pid, s)
				}
			}
		}(w)
	}
	for i := 0; i < 3; i++ {
		if err := m.VerifyAll(); err != nil {
			t.Fatalf("foreground pass %d: false alarm %v", i, err)
		}
	}
	wg.Wait()
	m.StopVerifier()
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("final pass: %v", err)
	}
}

// TestVerifyAllReturnsAlarmRaisedByBackgroundPass: when the background
// verifier's pass is the one that rotates the tampered epoch, the next
// epoch is self-consistent and VerifyAll's own rotations are all clean —
// it must still answer with the alarm that pass raised.
func TestVerifyAllReturnsAlarmRaisedByBackgroundPass(t *testing.T) {
	m, err := New(enclave.NewForTest(13), Config{FullScan: true})
	if err != nil {
		t.Fatal(err)
	}
	pids := loadRandomPages(t, m, 4, 4)
	slot, err := m.Insert(pids[0], []byte("watched-value"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.TamperRecord(pids[0], slot, []byte("corrupt-value")); err != nil {
		t.Fatal(err)
	}
	if err := m.StartVerifier(1); err != nil {
		t.Fatal(err)
	}
	defer m.StopVerifier()
	// Traffic on another page paces the background pass until it has
	// rotated the tampered epoch.
	deadline := time.Now().Add(10 * time.Second)
	for m.Alarm() == nil && time.Now().Before(deadline) {
		if _, err := m.Get(pids[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	if m.Alarm() == nil {
		t.Fatal("background verifier missed tampering")
	}
	if err := m.VerifyAll(); !errors.Is(err, ErrTamperDetected) {
		t.Fatalf("VerifyAll after the background pass raised the alarm: %v", err)
	}
}

// TestVerifyAllOnIdleMemoryWithPassInFlight: the background verifier
// advances a pass only when protected operations kick it. With a pass left
// in flight and no further traffic, VerifyAll must still return, and paced
// scanning must pick up again afterwards.
func TestVerifyAllOnIdleMemoryWithPassInFlight(t *testing.T) {
	m, err := New(enclave.NewForTest(17), Config{})
	if err != nil {
		t.Fatal(err)
	}
	pids := loadRandomPages(t, m, 8, 5)
	if err := m.StartVerifier(4); err != nil {
		t.Fatal(err)
	}
	defer m.StopVerifier()
	// Four operations are one kick: the pass over the only partition
	// starts, scans one page of eight and waits for a kick that never
	// comes.
	for i := 0; i < 4; i++ {
		if _, err := m.Get(pids[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	part := m.parts[0]
	inPass := func() bool {
		part.mu.Lock()
		defer part.mu.Unlock()
		return part.scanning
	}
	for deadline := time.Now().Add(2 * time.Second); !inPass(); {
		if time.Now().After(deadline) {
			t.Fatal("background pass never started")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- m.VerifyAll() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("VerifyAll on clean memory: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("VerifyAll blocked behind an idle background pass")
	}
	// Traffic must drive one more rotation after VerifyAll returned.
	after := m.Stats().Rotations
	for deadline := time.Now().Add(10 * time.Second); m.Stats().Rotations <= after; {
		if time.Now().After(deadline) {
			t.Fatalf("paced scanning did not resume: %d rotations", m.Stats().Rotations)
		}
		if _, err := m.Get(pids[0], 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyAllCatchesTamperBehindPassInFlight: a tamper of a page the
// pass in flight has already scanned is invisible to that pass's rotation —
// the scan read the page before the tamper. VerifyAll must complete that
// pass and then run one of its own, so it returns the alarm even for a pass
// the background verifier left behind when it stopped.
func TestVerifyAllCatchesTamperBehindPassInFlight(t *testing.T) {
	m, err := New(enclave.NewForTest(23), Config{FullScan: true})
	if err != nil {
		t.Fatal(err)
	}
	pids := loadRandomPages(t, m, 8, 7)
	if err := m.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.StartVerifier(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // one kick: the pass starts and scans one page
		if _, err := m.Get(pids[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	part := m.parts[0]
	scanned := func() *vPage {
		part.mu.Lock()
		epoch := part.epoch
		part.mu.Unlock()
		for _, id := range pids {
			vp := part.lookupLocal(id)
			vp.mu.Lock()
			done := vp.scannedEpoch == epoch
			vp.mu.Unlock()
			if done {
				return vp
			}
		}
		return nil
	}
	var vp *vPage
	for deadline := time.Now().Add(2 * time.Second); vp == nil; vp = scanned() {
		if time.Now().After(deadline) {
			t.Fatal("the background pass scanned no page")
		}
		time.Sleep(time.Millisecond)
	}
	m.StopVerifier()
	slot, flipped := -1, []byte(nil)
	if err := m.Slots(vp.id, func(s int, rec []byte) bool {
		slot, flipped = s, []byte{rec[0] ^ 0xff}
		return false
	}); err != nil || slot < 0 {
		t.Fatalf("no live record on page %d: %v", vp.id, err)
	}
	if err := m.TamperRecord(vp.id, slot, flipped); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyAll(); !errors.Is(err, ErrTamperDetected) {
		t.Fatalf("VerifyAll after a tamper behind the pass in flight: %v", err)
	}
}

// TestPageFreedMidPassIsNotReadTwice: a pass looks a page up and scans it
// later, and FreePage may read the page out in between (a DROP TABLE beside
// the verifier). The scan must then skip the page: reading it a second time
// would leave it in the read set twice and raise a false alarm.
func TestPageFreedMidPassIsNotReadTwice(t *testing.T) {
	m, err := New(enclave.NewForTest(29), Config{FullScan: true})
	if err != nil {
		t.Fatal(err)
	}
	pids := loadRandomPages(t, m, 2, 9)
	part := m.parts[0]
	part.scanMu.Lock()
	part.beginPass()
	vp := part.lookupLocal(pids[0])
	if err := m.FreePage(pids[0]); err != nil {
		t.Fatal(err)
	}
	if d := m.scanPage(part, vp); !d.Zero() {
		t.Error("a page freed after its lookup was scanned")
	}
	m.finishPasses([]*partition{part})
	part.scanMu.Unlock()
	if err := m.Alarm(); err != nil {
		t.Fatalf("false alarm: %v", err)
	}
}

// TestVerifierIsOneGoroutine: the background verifier is one thread, as
// the paper's is (§6.1). StartVerifier adds exactly one goroutine, and
// StopVerifier takes it away again. Goroutines are counted by the function
// that created them, so other tests' stragglers do not count.
func TestVerifierIsOneGoroutine(t *testing.T) {
	m, err := New(enclave.NewForTest(19), Config{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	loadRandomPages(t, m, 8, 6)
	started := func() int {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return bytes.Count(buf, []byte("created by veridb/internal/vmem.(*Memory).StartVerifier"))
	}
	if n := started(); n != 0 {
		t.Fatalf("%d verifier goroutines before StartVerifier", n)
	}
	if err := m.StartVerifier(1); err != nil {
		t.Fatal(err)
	}
	if n := started(); n != 1 {
		m.StopVerifier()
		t.Fatalf("StartVerifier started %d goroutines, want 1", n)
	}
	m.StopVerifier()
	for deadline := time.Now().Add(2 * time.Second); started() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d verifier goroutines after StopVerifier", started())
		}
		time.Sleep(time.Millisecond)
	}
}
