// Package enclave simulates the Intel SGX trusted execution environment
// that VeriDB relies on (paper §2.1, §3.1). No SGX hardware is assumed:
// the enclave is an in-process object whose private state is unexported and
// only reachable through ECall-shaped methods, so the trust boundary the
// paper draws (attested code + small sealed state inside; everything else
// outside) is enforced by the type system instead of by the CPU.
//
// What the simulation preserves from real SGX, because VeriDB's design and
// evaluation depend on it:
//
//   - A measured identity (MRENCLAVE analogue) and remote attestation: the
//     enclave holds an Ed25519 key whose public half is bound to the
//     measurement in a quote the client can verify.
//   - Boundary crossings: each ECall is counted, not slowed. Real SGX
//     charges ~8000 cycles per crossing (the paper §2.1); what the design
//     argument needs from the simulation is how many crossings a statement
//     makes (§3.3 colocates the engine with storage so that it makes one),
//     and the ablation benchmark prices that count.
//   - A monotonic counter and sealed keys for the portal's rollback defence
//     and the RSWS PRF key.
//
// The EPC's size is not simulated here. The trusted state that grows with
// the workload — statement materialisations, MVCC version images and the
// portal's replay windows — is counted by one ledger, internal/govern's
// Budget (core.Config.MemBudget).
package enclave

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"veridb/internal/sethash"
)

// identity is the enclave identity hash input (the measured code's
// stand-in).
const identity = "veridb-enclave-v1"

// Enclave is a simulated SGX enclave instance. All fields are private: the
// only way to interact with enclave state is through its methods, which
// model ECalls.
type Enclave struct {
	measurement [32]byte
	signPriv    ed25519.PrivateKey
	signPub     ed25519.PublicKey

	ecalls atomic.Int64
	seq    atomic.Uint64

	mu      sync.Mutex
	prfKey  *sethash.Key
	macKeys map[string][]byte // per-client pre-exchanged MAC keys (§5.1)
}

// New initialises an enclave, generating its attestation keypair and the
// sealed PRF key for the write-read consistent memory.
func New() (*Enclave, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("enclave: generating attestation key: %w", err)
	}
	prf, err := sethash.NewKey()
	if err != nil {
		return nil, err
	}
	e := &Enclave{
		measurement: sha256.Sum256([]byte(identity)),
		signPriv:    priv,
		signPub:     pub,
		prfKey:      prf,
		macKeys:     make(map[string][]byte),
	}
	return e, nil
}

// NewSeeded is New with the PRF key derived from a nonzero seed, so runs
// are reproducible (tests and benchmarks). A zero seed keeps New's random
// key.
func NewSeeded(seed uint64) (*Enclave, error) {
	e, err := New()
	if err != nil || seed == 0 {
		return e, err
	}
	e.prfKey = sethash.KeyFromSeed(seed)
	return e, nil
}

// NewForTest builds a deterministic enclave for tests and benchmarks: the
// PRF key derives from seed so runs are reproducible.
func NewForTest(seed uint64) *Enclave {
	e, err := New()
	if err != nil {
		panic(err)
	}
	e.prfKey = sethash.KeyFromSeed(seed)
	return e
}

// Measurement returns the enclave identity hash (MRENCLAVE analogue).
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// PRFKey exposes the sealed set-hash key to trusted in-enclave components
// (the vmem partitions). It never crosses the boundary in a real system;
// callers outside internal/ cannot reach it because the package is internal
// and the key type has no serialisation.
func (e *Enclave) PRFKey() *sethash.Key { return e.prfKey }

// ECall models entering the enclave: it counts the crossing. The portal
// calls it once per request; the engine and storage run inside, colocated
// (the VeriDB design, §3.3), so no record access crosses.
func (e *Enclave) ECall() { e.ecalls.Add(1) }

// Stats reports the boundary-crossing count.
type Stats struct {
	ECalls int64
}

// Stats returns a snapshot of the enclave's resource counters.
func (e *Enclave) Stats() Stats {
	return Stats{ECalls: e.ecalls.Load()}
}

// SeqCounter returns the enclave's monotonic counter, starting at zero:
// the portal's query sequence numbers (§5.1).
func (e *Enclave) SeqCounter() *atomic.Uint64 { return &e.seq }

// ProvisionMACKey installs a pre-exchanged client MAC key (paper §5.1: "the
// client and its trusted query execution engine maintain a pre-exchanged
// key k"). In a deployment this would arrive over the attested channel.
func (e *Enclave) ProvisionMACKey(clientID string, key []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.macKeys[clientID] = append([]byte(nil), key...)
}

// MACKey fetches a provisioned client key.
func (e *Enclave) MACKey(clientID string) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k, ok := e.macKeys[clientID]
	return k, ok
}

// Quote is a simulated attestation quote: it binds the enclave measurement
// and attestation public key to a client-supplied nonce, signed by the
// enclave. Real SGX routes this through the quoting enclave and IAS/DCAP;
// the trust argument (verify signature, compare measurement) is the same.
type Quote struct {
	Measurement [32]byte
	PublicKey   ed25519.PublicKey
	Nonce       []byte
	Signature   []byte
}

// Attest produces a quote over the given freshness nonce.
func (e *Enclave) Attest(nonce []byte) Quote {
	body := quoteBody(e.measurement, e.signPub, nonce)
	return Quote{
		Measurement: e.measurement,
		PublicKey:   e.signPub,
		Nonce:       append([]byte(nil), nonce...),
		Signature:   ed25519.Sign(e.signPriv, body),
	}
}

// VerifyQuote checks a quote against an expected measurement and the nonce
// the verifier chose. It returns the attested public key on success. The
// client checks responses under its MAC key, not this one.
func VerifyQuote(q Quote, expectedMeasurement [32]byte, nonce []byte) (ed25519.PublicKey, error) {
	if q.Measurement != expectedMeasurement {
		return nil, errors.New("enclave: attestation measurement mismatch")
	}
	if !hmac.Equal(q.Nonce, nonce) {
		return nil, errors.New("enclave: attestation nonce mismatch")
	}
	if !ed25519.Verify(q.PublicKey, quoteBody(q.Measurement, q.PublicKey, q.Nonce), q.Signature) {
		return nil, errors.New("enclave: attestation signature invalid")
	}
	return q.PublicKey, nil
}

func quoteBody(m [32]byte, pub ed25519.PublicKey, nonce []byte) []byte {
	b := make([]byte, 0, 32+len(pub)+len(nonce))
	b = append(b, m[:]...)
	b = append(b, pub...)
	b = append(b, nonce...)
	return b
}
