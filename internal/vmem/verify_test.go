package vmem

import (
	"errors"
	"fmt"
	"math/rand"
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
// XOR-fold parallelism rests on: scanning the same memory contents with 1
// worker and with many workers must produce identical resident digests
// (and identical, alarm-free epoch rotations). Runs across the
// configuration space because metadata mode changes the job list.
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
				build := func(workers int) *Memory {
					c := cfg
					c.VerifyWorkers = workers
					m, err := New(enclave.NewForTest(42), c) // same seed → same PRF key
					if err != nil {
						t.Fatal(err)
					}
					loadRandomPages(t, m, 6, 100+trial)
					return m
				}
				serial := build(1)
				parallel := build(8)
				if err := serial.VerifyAll(); err != nil {
					t.Fatalf("serial pass: %v", err)
				}
				if err := parallel.VerifyAll(); err != nil {
					t.Fatalf("parallel pass: %v", err)
				}
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
// multi-worker VerifyAll is mid-pass over a partitioned memory, with
// protected operations running concurrently on other pages. Whichever
// epoch the tampered read lands in, the sticky alarm must be raised within
// two full passes that start after the tamper.
func TestTamperDetectedUnderConcurrentVerifyAll(t *testing.T) {
	m, err := New(enclave.NewForTest(7), Config{Partitions: 8, FullScan: true, VerifyWorkers: 8})
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

// TestTamperDetectedByMultiWorkerBackgroundVerifier is the background
// variant: the N-worker scanner pool, paced by ordinary traffic, must
// raise the alarm after a direct memory write.
func TestTamperDetectedByMultiWorkerBackgroundVerifier(t *testing.T) {
	m, err := New(enclave.NewForTest(9), Config{Partitions: 4, FullScan: true, VerifyWorkers: 4})
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
		t.Fatalf("multi-worker background verifier missed tampering: %v", err)
	}
}

// TestConcurrentVerifyAllAndBackgroundVerifier drives foreground VerifyAll
// passes, the background scanner pool, and mutating traffic all at once on
// a clean memory: no false alarm and no deadlock.
func TestConcurrentVerifyAllAndBackgroundVerifier(t *testing.T) {
	m, err := New(enclave.NewForTest(11), Config{Partitions: 4, VerifyWorkers: 4})
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

// TestVerifyAllOnIdleMemoryWithPassInFlight: the background verifier holds
// a partition's scan lock from the first page of a pass to its rotation,
// and advances only when protected operations kick it. With a pass left in
// flight and no further traffic, VerifyAll must still return, and paced
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
	// Two rotations so far: the pass VerifyAll had the verifier finish,
	// and VerifyAll's own. Traffic must drive a third.
	for deadline := time.Now().Add(10 * time.Second); m.Stats().Rotations < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("paced scanning did not resume: %d rotations", m.Stats().Rotations)
		}
		if _, err := m.Get(pids[0], 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyWorkersDefaultsToGOMAXPROCS pins the knob's default.
func TestVerifyWorkersDefault(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.VerifyWorkers < 1 {
		t.Fatalf("default VerifyWorkers = %d", cfg.VerifyWorkers)
	}
	cfg = Config{VerifyWorkers: 3}.withDefaults()
	if cfg.VerifyWorkers != 3 {
		t.Fatalf("explicit VerifyWorkers overridden to %d", cfg.VerifyWorkers)
	}
}
