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
//   - A limited EPC: the enclave accounts every byte of protected state and
//     refuses to exceed its budget, so "keep the whole database in EPC" is
//     as impractical here as on hardware (§1, §3.3).
//   - Expensive boundary crossings: an ECall can charge a configurable
//     cycle cost (~8000 cycles reported by the paper §2.1), letting the
//     ablation benches measure the cost of not colocating the query engine
//     with the storage interface.
//   - Monotonic counters and sealed keys for the portal's rollback defence
//     and the RSWS PRF key.
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
	"time"

	"veridb/internal/sethash"
)

// DefaultEPCBytes is the usable enclave page cache budget. Real SGX v1
// reserves 128 MB with ~96 MB usable (§2.1, §3.3); the simulation defaults
// to the same figure.
const DefaultEPCBytes = 96 << 20

// DefaultECallCycles is the boundary-crossing cost reported by the paper
// (§2.1, citing HotCalls/Eleos: ~8000 cycles per ECall).
const DefaultECallCycles = 8000

// ErrEPCExhausted is returned when reserving protected memory would exceed
// the enclave's EPC budget.
var ErrEPCExhausted = errors.New("enclave: EPC budget exhausted")

// Config controls the simulated hardware.
type Config struct {
	// EPCBytes is the protected-memory budget. Zero means DefaultEPCBytes.
	EPCBytes int64
	// ECallCycles is the simulated cost of one boundary crossing in CPU
	// cycles. Zero disables crossing-cost simulation (the default for
	// correctness tests; benches opt in).
	ECallCycles int64
}

// cpuGHz converts simulated cycles to wall time: the paper's Xeon
// E3-1270 v6.
const cpuGHz = 3.8

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

	epcBudget int64
	epcUsed   atomic.Int64

	ecallCycles int64
	cyclePeriod time.Duration // duration of one simulated cycle batch
	ecalls      atomic.Int64

	mu       sync.Mutex
	counters map[string]*atomic.Uint64
	prfKey   *sethash.Key
	macKeys  map[string][]byte // per-client pre-exchanged MAC keys (§5.1)
}

// New initialises an enclave, generating its attestation keypair and the
// sealed PRF key for the write-read consistent memory.
func New(cfg Config) (*Enclave, error) {
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
		epcBudget:   cfg.EPCBytes,
		ecallCycles: cfg.ECallCycles,
		counters:    make(map[string]*atomic.Uint64),
		prfKey:      prf,
		macKeys:     make(map[string][]byte),
	}
	if e.epcBudget == 0 {
		e.epcBudget = DefaultEPCBytes
	}
	e.cyclePeriod = time.Duration(float64(time.Second) / (cpuGHz * 1e9) * float64(e.ecallCycles))
	return e, nil
}

// NewSeeded is New with the PRF key derived from a nonzero seed, so runs
// are reproducible (tests and benchmarks); everything else follows cfg. A
// zero seed keeps New's random key.
func NewSeeded(cfg Config, seed uint64) (*Enclave, error) {
	e, err := New(cfg)
	if err != nil || seed == 0 {
		return e, err
	}
	e.prfKey = sethash.KeyFromSeed(seed)
	return e, nil
}

// NewForTest builds a deterministic enclave for tests and benchmarks: the
// PRF key derives from seed so runs are reproducible.
func NewForTest(seed uint64) *Enclave {
	e, err := New(Config{})
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

// ECall models entering the enclave: it charges the configured crossing
// cost and counts the call. Components on the hot path call it once per
// boundary crossing; colocated components (the VeriDB design, §3.3) avoid
// it entirely.
func (e *Enclave) ECall() {
	e.ecalls.Add(1)
	if e.ecallCycles > 0 {
		spin(e.cyclePeriod)
	}
}

// spin busy-waits for d. Sleeping is useless at sub-microsecond scale, and
// a real ECall burns cycles rather than yielding, so the simulation does too.
func spin(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}

// Stats reports the boundary-crossing count and EPC usage.
type Stats struct {
	ECalls   int64
	EPCUsed  int64
	EPCLimit int64
}

// Stats returns a snapshot of the enclave's resource counters.
func (e *Enclave) Stats() Stats {
	return Stats{
		ECalls:   e.ecalls.Load(),
		EPCUsed:  e.epcUsed.Load(),
		EPCLimit: e.epcBudget,
	}
}

// ReserveEPC accounts n bytes of protected memory, failing if the budget
// would be exceeded. VeriDB keeps only RSWS accumulators, portal state and
// per-query operator state in EPC, so this should never trip in practice;
// the failure mode exists so tests can demonstrate why the database itself
// cannot live inside the enclave.
func (e *Enclave) ReserveEPC(n int64) error {
	if n < 0 {
		return fmt.Errorf("enclave: negative EPC reservation %d", n)
	}
	for {
		used := e.epcUsed.Load()
		if used+n > e.epcBudget {
			return fmt.Errorf("%w: used %d + requested %d > budget %d",
				ErrEPCExhausted, used, n, e.epcBudget)
		}
		if e.epcUsed.CompareAndSwap(used, used+n) {
			return nil
		}
	}
}

// ReleaseEPC returns n bytes to the budget.
func (e *Enclave) ReleaseEPC(n int64) {
	if n < 0 {
		return
	}
	e.epcUsed.Add(-n)
}

// MonotonicCounter returns the named strictly-increasing counter, creating
// it at zero. The portal uses one for query sequence numbers (§5.1).
func (e *Enclave) MonotonicCounter(name string) *atomic.Uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.counters[name]
	if !ok {
		c = &atomic.Uint64{}
		e.counters[name] = c
	}
	return c
}

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
// the verifier chose. It returns the attested public key on success, which
// the client then uses to check result endorsements.
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
