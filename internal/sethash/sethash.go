// Package sethash implements the cryptographic primitives underlying
// VeriDB's write-read consistent memory (paper §4.1): a keyed pseudo-random
// function over (address, data) pairs and an XOR-homomorphic multiset hash.
//
// The multiset hash of a set S is
//
//	h(S) = XOR over (addr, data) in S of PRF_k(addr ‖ data)
//
// so that h can be maintained incrementally under insertion (fold one more
// PRF image in) and two multisets are equal iff their hashes are equal,
// except with negligible probability. PRF_k is HMAC-SHA-256, so digests and
// accumulators are 32 bytes and one check is forged with probability 2^-256
// plus HMAC-SHA-256's PRF advantage. The paper's 64-byte accumulators were
// an implementation choice, not part of the argument. PRF_k must be a PRF:
// a keyed hash that is linear in its input (GHASH/GMAC) lets two equal
// tampers cancel in the XOR, whatever the key.
package sethash

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
)

// Size is the byte length of PRF outputs and multiset-hash accumulators.
const Size = sha256.Size // 32 bytes

// Digest is a single 32-byte PRF image or multiset-hash accumulator.
type Digest [Size]byte

// Zero reports whether d is the all-zero digest (the hash of the empty set).
func (d *Digest) Zero() bool {
	var z Digest
	return subtle.ConstantTimeCompare(d[:], z[:]) == 1
}

// Equal reports whether d and o are identical, in constant time.
func (d *Digest) Equal(o *Digest) bool {
	return subtle.ConstantTimeCompare(d[:], o[:]) == 1
}

// XOR folds o into d in place. Because XOR is its own inverse, the same
// operation both inserts into and removes from a multiset accumulator.
//
// The fold works four uint64 words at a time rather than byte-wise: the
// accumulator fold sits on the verification scan's hot path (one XOR per
// live cell per scan), and the word loads/stores compile to plain 64-bit
// moves. Loading and storing through the same byte order keeps the result
// independent of host endianness.
func (d *Digest) XOR(o *Digest) {
	for i := 0; i < Size; i += 8 {
		binary.LittleEndian.PutUint64(d[i:i+8],
			binary.LittleEndian.Uint64(d[i:i+8])^binary.LittleEndian.Uint64(o[i:i+8]))
	}
}

// String renders the first eight bytes as hex, enough for logs and tests.
func (d Digest) String() string {
	return hex.EncodeToString(d[:8])
}

// Key is a PRF key. It must stay inside the (simulated) enclave: an
// adversary that learns it can forge set-hash updates.
//
// The key owns a pool of keyed HMAC states: re-deriving the inner/outer
// pads on every evaluation would double the hashing work on the hot path
// the paper's Fig. 9 measures.
type Key struct {
	k    [32]byte
	pool sync.Pool
}

// prfState is one pooled evaluator: the keyed HMAC plus the two buffers
// that cross the hash.Hash interface. Arguments of an interface call
// escape, so a header or digest on the caller's stack would move to the
// heap on every evaluation; inside the pooled state, which is on the heap
// already, they cost nothing.
type prfState struct {
	mac hash.Hash
	hdr [16]byte
	sum Digest
}

func (k *Key) get() *prfState {
	if st, ok := k.pool.Get().(*prfState); ok {
		return st
	}
	return &prfState{mac: hmac.New(sha256.New, k.k[:])}
}

// prfv evaluates PRF_k(addr ‖ ver ‖ data) into out.
func (st *prfState) prfv(addr, ver uint64, data []byte, out *Digest) {
	st.mac.Reset()
	binary.LittleEndian.PutUint64(st.hdr[:8], addr)
	binary.LittleEndian.PutUint64(st.hdr[8:], ver)
	st.mac.Write(st.hdr[:])
	st.mac.Write(data)
	st.mac.Sum(st.sum[:0])
	*out = st.sum
}

// NewKey draws a fresh random PRF key.
func NewKey() (*Key, error) {
	var k Key
	if _, err := rand.Read(k.k[:]); err != nil {
		return nil, fmt.Errorf("sethash: generating PRF key: %w", err)
	}
	return &k, nil
}

// KeyFromSeed derives a deterministic key from seed. Intended for tests and
// reproducible benchmarks; production callers should use NewKey.
func KeyFromSeed(seed uint64) *Key {
	var k Key
	k.k = sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("veridb-sethash-seed:"), seed))
	return &k
}

// PRFv computes PRF_k(addr ‖ ver ‖ data): the image of a versioned cell.
// Blum-style offline checking timestamps every entry so the read and write
// multisets contain only distinct elements, which makes the XOR set hash a
// sound multiset hash (even multiplicities would otherwise cancel).
func (k *Key) PRFv(addr, ver uint64, data []byte) (d Digest) {
	k.PRFvInto(addr, ver, data, &d)
	return d
}

// PRFvInto computes PRF_k(addr ‖ ver ‖ data) directly into out, avoiding
// the digest return-value copy of PRFv. Equivalent to *out = k.PRFv(...).
func (k *Key) PRFvInto(addr, ver uint64, data []byte, out *Digest) {
	st := k.get()
	st.prfv(addr, ver, data, out)
	k.pool.Put(st)
}

// Hasher is a batch PRF evaluator: it checks one keyed HMAC state out of
// the key's pool and reuses it for every evaluation until Close. Callers
// that evaluate many PRFs in a row (vmem's verification workers, a range
// scan's protected reads) hold one Hasher each, paying the pool
// synchronisation once per batch instead of once per cell. A Hasher is not
// safe for concurrent use.
type Hasher struct {
	k  *Key
	st *prfState
}

// NewHasher checks an HMAC state out of the pool. Callers must Close.
func (k *Key) NewHasher() Hasher {
	return Hasher{k: k, st: k.get()}
}

// PRFvInto evaluates PRF_k(addr ‖ ver ‖ data) into out.
func (h *Hasher) PRFvInto(addr, ver uint64, data []byte, out *Digest) {
	h.st.prfv(addr, ver, data, out)
}

// Close returns the HMAC state to the key's pool. Idempotent, and a no-op
// on the zero Hasher.
func (h *Hasher) Close() {
	if h.st != nil {
		h.k.pool.Put(h.st)
		h.st = nil
	}
}

// Accumulator is an incrementally maintained multiset hash h(S). The zero
// value is the hash of the empty multiset and is ready to use. Accumulator
// is not safe for concurrent use; callers (the vmem RSWS partitions) guard
// it with their own locks, mirroring the paper's RSWS locks.
type Accumulator struct {
	h Digest
}

// AddDigest folds a precomputed PRF image into the multiset. Callers that
// need the same image in two accumulators (e.g. a read updates both h(RS)
// and h(WS), Alg. 1 lines 3–5) compute the PRF once and fold it twice.
func (a *Accumulator) AddDigest(d *Digest) {
	a.h.XOR(d)
}

// Sum returns the current accumulator value.
func (a *Accumulator) Sum() Digest { return a.h }

// Reset returns the accumulator to the empty-set hash.
func (a *Accumulator) Reset() { a.h = Digest{} }

// Equal reports whether two accumulators hash the same multiset.
func (a *Accumulator) Equal(b *Accumulator) bool {
	return a.h.Equal(&b.h)
}
