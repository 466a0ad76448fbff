package enclave

import (
	"bytes"
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

// TestNewSeededKeepsConfig: a seed fixes the PRF key and nothing else, so
// the configured crossing cost still applies.
func TestNewSeededKeepsConfig(t *testing.T) {
	cfg := Config{ECallCycles: DefaultECallCycles}
	a, err := NewSeeded(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSeeded(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.ecallCycles != cfg.ECallCycles || a.cyclePeriod <= 0 {
		t.Fatalf("seeded enclave charges %d cycles (%v), want %d", a.ecallCycles, a.cyclePeriod, cfg.ECallCycles)
	}
	pa, pb := a.PRFKey().PRFv(1, 0, []byte("x")), b.PRFKey().PRFv(1, 0, []byte("x"))
	if !pa.Equal(&pb) {
		t.Fatal("one seed gave two PRF keys")
	}
}

func BenchmarkECallCrossing(b *testing.B) {
	e, _ := New(Config{ECallCycles: DefaultECallCycles})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ECall()
	}
}
