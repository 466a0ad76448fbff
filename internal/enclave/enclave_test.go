package enclave

import (
	"bytes"
	"testing"

	"veridb/internal/sethash"
)

func TestAttestationRoundTrip(t *testing.T) {
	e, err := New()
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
	e, err := New()
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
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	q := e.Attest([]byte("fresh"))
	if _, err := VerifyQuote(q, e.Measurement(), []byte("replayed")); err == nil {
		t.Fatal("quote with wrong nonce accepted")
	}
}

func TestAttestationRejectsForgedSignature(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	q := e.Attest([]byte("n"))
	q.Signature[0] ^= 0x01
	if _, err := VerifyQuote(q, e.Measurement(), []byte("n")); err == nil {
		t.Fatal("quote with corrupted signature accepted")
	}
}

func TestSeqCounter(t *testing.T) {
	e, _ := New()
	c := e.SeqCounter()
	if c.Load() != 0 || c.Add(1) != 1 || c.Add(1) != 2 {
		t.Fatal("counter did not start at zero and increase monotonically")
	}
	if e.SeqCounter() != c {
		t.Fatal("counter identity not stable across lookups")
	}
	if f, _ := New(); f.SeqCounter().Load() != 0 {
		t.Fatal("two enclaves share a counter")
	}
}

func TestECallAccounting(t *testing.T) {
	e, _ := New()
	for i := 0; i < 5; i++ {
		e.ECall()
	}
	s := e.Stats()
	if s.ECalls != 5 {
		t.Fatalf("stats = %+v, want 5 ecalls", s)
	}
}

func TestMACKeyProvisioning(t *testing.T) {
	e, _ := New()
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

// TestNewSeededFixesPRFKey: a nonzero seed fixes the PRF key; a zero seed
// keeps New's random one.
func TestNewSeededFixesPRFKey(t *testing.T) {
	prf := func(seed uint64) sethash.Digest {
		e, err := NewSeeded(seed)
		if err != nil {
			t.Fatal(err)
		}
		return e.PRFKey().PRFv(1, 0, []byte("x"))
	}
	pa, pb := prf(7), prf(7)
	if !pa.Equal(&pb) {
		t.Fatal("one seed gave two PRF keys")
	}
	ra, rb := prf(0), prf(0)
	if ra.Equal(&rb) || ra.Equal(&pa) {
		t.Fatal("a zero seed did not draw a random PRF key")
	}
}
