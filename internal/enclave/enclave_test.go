package enclave

import (
	"bytes"
	"sync"
	"testing"
)

func TestAttestationRoundTrip(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("client-nonce-1")
	q := e.Attest(nonce)
	pub, err := VerifyQuote(q, e.Measurement(), nonce)
	if err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
	if !bytes.Equal(pub, q.PublicKey) {
		t.Fatal("returned public key differs from quote")
	}
}

func TestAttestationRejectsWrongMeasurement(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := e.Attest([]byte("n"))
	var other [32]byte
	other[0] = 0xFF
	if _, err := VerifyQuote(q, other, []byte("n")); err == nil {
		t.Fatal("quote with wrong measurement accepted")
	}
}

func TestAttestationRejectsStaleNonce(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := e.Attest([]byte("fresh"))
	if _, err := VerifyQuote(q, e.Measurement(), []byte("replayed")); err == nil {
		t.Fatal("quote with wrong nonce accepted")
	}
}

func TestAttestationRejectsForgedSignature(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := e.Attest([]byte("n"))
	q.Signature[0] ^= 0x01
	if _, err := VerifyQuote(q, e.Measurement(), []byte("n")); err == nil {
		t.Fatal("quote with corrupted signature accepted")
	}
}

func TestEPCBudget(t *testing.T) {
	e, err := New(Config{EPCBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReserveEPC(512); err != nil {
		t.Fatalf("reserve within budget failed: %v", err)
	}
	if err := e.ReserveEPC(512); err != nil {
		t.Fatalf("reserve exactly to budget failed: %v", err)
	}
	if err := e.ReserveEPC(1); err == nil {
		t.Fatal("reserve beyond budget succeeded")
	}
	e.ReleaseEPC(512)
	if err := e.ReserveEPC(256); err != nil {
		t.Fatalf("reserve after release failed: %v", err)
	}
	if got := e.Stats().EPCUsed; got != 768 {
		t.Fatalf("EPCUsed = %d, want 768", got)
	}
}

func TestEPCRejectsNegative(t *testing.T) {
	e, _ := New(Config{EPCBytes: 1024})
	if err := e.ReserveEPC(-1); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestEPCConcurrentReservations(t *testing.T) {
	e, _ := New(Config{EPCBytes: 1000})
	var wg sync.WaitGroup
	granted := make(chan int64, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e.ReserveEPC(25) == nil {
				granted <- 25
			}
		}()
	}
	wg.Wait()
	close(granted)
	var total int64
	for g := range granted {
		total += g
	}
	if total > 1000 {
		t.Fatalf("concurrent reservations oversubscribed EPC: granted %d of 1000", total)
	}
	if total != e.Stats().EPCUsed {
		t.Fatalf("accounting mismatch: granted %d, used %d", total, e.Stats().EPCUsed)
	}
}

func TestMonotonicCounter(t *testing.T) {
	e, _ := New(Config{})
	c := e.MonotonicCounter("seq")
	if c.Add(1) != 1 || c.Add(1) != 2 {
		t.Fatal("counter did not increase monotonically")
	}
	if e.MonotonicCounter("seq") != c {
		t.Fatal("counter identity not stable across lookups")
	}
	if e.MonotonicCounter("other").Load() != 0 {
		t.Fatal("distinct counter names share state")
	}
}

func TestECallAccounting(t *testing.T) {
	e, _ := New(Config{}) // zero cycle cost: crossings are counted, not slowed
	for i := 0; i < 5; i++ {
		e.ECall()
	}
	s := e.Stats()
	if s.ECalls != 5 {
		t.Fatalf("stats = %+v, want 5 ecalls", s)
	}
}

func TestMACKeyProvisioning(t *testing.T) {
	e, _ := New(Config{})
	if _, ok := e.MACKey("alice"); ok {
		t.Fatal("unprovisioned key reported present")
	}
	key := []byte{1, 2, 3}
	e.ProvisionMACKey("alice", key)
	key[0] = 99 // enclave must have taken a private copy
	got, ok := e.MACKey("alice")
	if !ok || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("MACKey = %v, %v", got, ok)
	}
}

func TestNewForTestDeterministicPRF(t *testing.T) {
	a := NewForTest(42).PRFKey().PRFv(1, 0, []byte("x"))
	b := NewForTest(42).PRFKey().PRFv(1, 0, []byte("x"))
	if !a.Equal(&b) {
		t.Fatal("NewForTest PRF key not deterministic")
	}
}

func BenchmarkECallCrossing(b *testing.B) {
	e, _ := New(Config{ECallCycles: DefaultECallCycles})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ECall()
	}
}
