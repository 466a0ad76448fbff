package sethash

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// fold inserts the element (addr, ver 0, data) into a: one PRF image folded
// into the accumulator, as vmem does for every cell.
func fold(a *Accumulator, k *Key, addr uint64, data []byte) {
	d := k.PRFv(addr, 0, data)
	a.AddDigest(&d)
}

func TestPRFDeterministic(t *testing.T) {
	k := KeyFromSeed(1)
	a := k.PRFv(42, 0, []byte("hello"))
	b := k.PRFv(42, 0, []byte("hello"))
	if !a.Equal(&b) {
		t.Fatal("PRF not deterministic for identical inputs")
	}
}

func TestPRFDistinguishesAddr(t *testing.T) {
	k := KeyFromSeed(1)
	a := k.PRFv(1, 0, []byte("x"))
	b := k.PRFv(2, 0, []byte("x"))
	if a.Equal(&b) {
		t.Fatal("PRF collided on distinct addresses")
	}
}

func TestPRFDistinguishesData(t *testing.T) {
	k := KeyFromSeed(1)
	a := k.PRFv(1, 0, []byte("x"))
	b := k.PRFv(1, 0, []byte("y"))
	if a.Equal(&b) {
		t.Fatal("PRF collided on distinct data")
	}
}

func TestPRFKeyed(t *testing.T) {
	a := KeyFromSeed(1).PRFv(1, 0, []byte("x"))
	b := KeyFromSeed(2).PRFv(1, 0, []byte("x"))
	if a.Equal(&b) {
		t.Fatal("PRF output identical under different keys")
	}
}

func TestPRFBoundaryConcatenation(t *testing.T) {
	// (addr, data) must be injectively encoded: moving a byte between the
	// two halves must change the image. addr is fixed-width so this holds.
	k := KeyFromSeed(3)
	a := k.PRFv(0x01, 0, []byte{0x02})
	b := k.PRFv(0x0102, 0, nil)
	if a.Equal(&b) {
		t.Fatal("PRF encoding is not injective across the addr/data boundary")
	}
}

func TestNewKeyRandom(t *testing.T) {
	k1, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	a := k1.PRFv(1, 0, []byte("x"))
	b := k2.PRFv(1, 0, []byte("x"))
	if a.Equal(&b) {
		t.Fatal("two fresh keys produced identical PRF output")
	}
}

func TestZeroDigest(t *testing.T) {
	var d Digest
	if !d.Zero() {
		t.Fatal("zero value not reported as zero")
	}
	d[0] = 1
	if d.Zero() {
		t.Fatal("nonzero digest reported as zero")
	}
}

func TestAccumulatorEmptyEqualsEmpty(t *testing.T) {
	var a, b Accumulator
	if !a.Equal(&b) {
		t.Fatal("two empty accumulators differ")
	}
	s := a.Sum()
	if !s.Zero() {
		t.Fatal("empty accumulator sum is not zero")
	}
}

func TestAccumulatorOrderIndependence(t *testing.T) {
	k := KeyFromSeed(7)
	pairs := [][2]any{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		data := make([]byte, 1+rng.Intn(32))
		rng.Read(data)
		pairs = append(pairs, [2]any{uint64(i), data})
	}
	var fwd, rev Accumulator
	for _, p := range pairs {
		fold(&fwd, k, p[0].(uint64), p[1].([]byte))
	}
	for i := len(pairs) - 1; i >= 0; i-- {
		fold(&rev, k, pairs[i][0].(uint64), pairs[i][1].([]byte))
	}
	if !fwd.Equal(&rev) {
		t.Fatal("multiset hash depends on insertion order")
	}
}

func TestAccumulatorSelfInverse(t *testing.T) {
	k := KeyFromSeed(9)
	var a Accumulator
	fold(&a, k, 5, []byte("payload"))
	fold(&a, k, 5, []byte("payload")) // XOR cancels: even multiplicity vanishes
	s := a.Sum()
	if !s.Zero() {
		t.Fatal("adding the same element twice did not cancel")
	}
}

func TestAccumulatorReset(t *testing.T) {
	k := KeyFromSeed(9)
	var a Accumulator
	fold(&a, k, 1, []byte("x"))
	a.Reset()
	s := a.Sum()
	if !s.Zero() {
		t.Fatal("reset did not clear the accumulator")
	}
}

// TestReadWriteConsistencyProperty is the core soundness property of §4.1:
// if the reads on each address interleave exactly with the writes (every
// read returns the most recent write), then after the final scan the read
// set equals the write set — and if any read returns tampered data, they
// differ.
func TestReadWriteConsistencyProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		k := KeyFromSeed(uint64(seed))
		rng := rand.New(rand.NewSource(seed))
		mem := map[uint64][]byte{}
		var rs, ws Accumulator
		// Initial registration: seed WS with initial contents.
		for addr := uint64(0); addr < 8; addr++ {
			v := []byte{byte(rng.Intn(256))}
			mem[addr] = v
			fold(&ws, k, addr, v)
		}
		for i := 0; i < int(nOps); i++ {
			addr := uint64(rng.Intn(8))
			if rng.Intn(2) == 0 { // read: fold into RS, virtual write-back into WS
				fold(&rs, k, addr, mem[addr])
				fold(&ws, k, addr, mem[addr])
			} else { // write: old into RS, new into WS
				fold(&rs, k, addr, mem[addr])
				v := []byte{byte(rng.Intn(256))}
				mem[addr] = v
				fold(&ws, k, addr, v)
			}
		}
		// Verification scan: read everything once.
		for addr := uint64(0); addr < 8; addr++ {
			fold(&rs, k, addr, mem[addr])
		}
		return rs.Equal(&ws)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTamperBreaksConsistency(t *testing.T) {
	k := KeyFromSeed(13)
	mem := map[uint64][]byte{0: {1}, 1: {2}}
	var rs, ws Accumulator
	for a, v := range mem {
		fold(&ws, k, a, v)
	}
	mem[1] = []byte{99} // adversary writes around the protected interface
	for a, v := range mem {
		fold(&rs, k, a, v)
	}
	if rs.Equal(&ws) {
		t.Fatal("tampered memory passed the consistency check")
	}
}

// xorBytewise is the pre-optimisation byte-at-a-time fold, kept here as
// the reference the word-wise XOR must agree with (and the baseline
// BenchmarkDigestXOR compares against).
func xorBytewise(d, o *Digest) {
	for i := range d {
		d[i] ^= o[i]
	}
}

func TestXORMatchesBytewiseReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b, ref Digest
		rng.Read(a[:])
		rng.Read(b[:])
		ref = a
		xorBytewise(&ref, &b)
		a.XOR(&b)
		return a.Equal(&ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestXORSelfCancels(t *testing.T) {
	var a, b Digest
	rand.New(rand.NewSource(5)).Read(a[:])
	b = a
	a.XOR(&b)
	if !a.Zero() {
		t.Fatal("d XOR d is not zero")
	}
}

func TestPRFvIntoMatchesPRFv(t *testing.T) {
	k := KeyFromSeed(21)
	data := []byte("cell-payload")
	want := k.PRFv(7, 3, data)
	var got Digest
	k.PRFvInto(7, 3, data, &got)
	if !got.Equal(&want) {
		t.Fatal("PRFvInto disagrees with PRFv")
	}
}

func TestHasherMatchesPRFv(t *testing.T) {
	k := KeyFromSeed(22)
	h := k.NewHasher()
	defer h.Close()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 64; i++ {
		data := make([]byte, rng.Intn(128))
		rng.Read(data)
		addr, ver := rng.Uint64(), rng.Uint64()
		want := k.PRFv(addr, ver, data)
		var got Digest
		h.PRFvInto(addr, ver, data, &got)
		if !got.Equal(&want) {
			t.Fatalf("evaluation %d: Hasher disagrees with PRFv", i)
		}
	}
}

// TestPRFvMatchesHMACDefinition recomputes the PRF with a fresh crypto/hmac:
// PRF_k(addr, ver, data) = HMAC-SHA-256(k, le64(addr) ‖ le64(ver) ‖ data),
// a 32-byte image.
// The golden checksums pin the same thing only through a whole workload;
// this pins the definition itself, whatever the pooled state does.
func TestPRFvMatchesHMACDefinition(t *testing.T) {
	if Size != 32 {
		t.Fatalf("Size = %d, want 32 (HMAC-SHA-256)", Size)
	}
	k := KeyFromSeed(24)
	rng := rand.New(rand.NewSource(24))
	h := k.NewHasher()
	defer h.Close()
	for i := 0; i < 64; i++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		addr, ver := rng.Uint64(), rng.Uint64()
		ref := hmac.New(sha256.New, k.k[:])
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[:8], addr)
		binary.LittleEndian.PutUint64(hdr[8:], ver)
		ref.Write(hdr[:])
		ref.Write(data)
		want := ref.Sum(nil)
		var viaKey, viaHasher Digest
		k.PRFvInto(addr, ver, data, &viaKey)
		h.PRFvInto(addr, ver, data, &viaHasher)
		if got := k.PRFv(addr, ver, data); !bytes.Equal(got[:], want) ||
			!bytes.Equal(viaKey[:], want) || !bytes.Equal(viaHasher[:], want) {
			t.Fatalf("evaluation %d: PRFv is not HMAC-SHA-256(k, le64(addr) ‖ le64(ver) ‖ data)", i)
		}
	}
}

// TestPRFEvaluationsDoNotAllocate pins the header and the digest inside the
// pooled state: an evaluation through any of the three entry points leaves
// nothing on the heap.
func TestPRFEvaluationsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	k := KeyFromSeed(25)
	data := make([]byte, 180)
	var d Digest
	h := k.NewHasher()
	defer h.Close()
	for name, eval := range map[string]func(){
		"PRFv":            func() { d = k.PRFv(1, 2, data) },
		"PRFvInto":        func() { k.PRFvInto(1, 2, data, &d) },
		"Hasher.PRFvInto": func() { h.PRFvInto(1, 2, data, &d) },
	} {
		eval() // the state's first Reset marshals the keyed pads once
		if n := testing.AllocsPerRun(200, eval); n != 0 {
			t.Errorf("%s: %v allocations per evaluation, want 0", name, n)
		}
	}
}

func TestHasherCloseIdempotent(t *testing.T) {
	k := KeyFromSeed(23)
	h := k.NewHasher()
	h.Close()
	h.Close() // second close must not panic or double-pool the state
}

func TestDigestString(t *testing.T) {
	var d Digest
	d[0] = 0xAB
	if got := d.String(); got != "ab00000000000000" {
		t.Fatalf("String() = %q", got)
	}
}

// BenchmarkDigestXOR pins the word-wise fold's win over the byte-wise
// reference; the scan fold path executes one of these per live cell.
func BenchmarkDigestXOR(b *testing.B) {
	var d, o Digest
	rand.New(rand.NewSource(1)).Read(o[:])
	b.Run("wordwise", func(b *testing.B) {
		b.SetBytes(Size)
		for i := 0; i < b.N; i++ {
			d.XOR(&o)
		}
	})
	b.Run("bytewise", func(b *testing.B) {
		b.SetBytes(Size)
		for i := 0; i < b.N; i++ {
			xorBytewise(&d, &o)
		}
	})
}

// BenchmarkPRFvInto measures one PRF evaluation at 16, 100 and 500 data
// bytes (plus the 16-byte header) three ways: PRFv with its per-call pool
// round-trip, a batch Hasher, and a Hasher image folded into an
// accumulator, the unit of work of every protected read.
func BenchmarkPRFvInto(b *testing.B) {
	k := KeyFromSeed(1)
	for _, n := range []int{16, 100, 500} {
		data := make([]byte, n)
		b.Run(fmt.Sprintf("pooledPerCall/%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				_ = k.PRFv(uint64(i), 1, data)
			}
		})
		b.Run(fmt.Sprintf("hasherBatch/%dB", n), func(b *testing.B) {
			h := k.NewHasher()
			defer h.Close()
			var d Digest
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.PRFvInto(uint64(i), 1, data, &d)
			}
		})
		b.Run(fmt.Sprintf("hasherFold/%dB", n), func(b *testing.B) {
			h := k.NewHasher()
			defer h.Close()
			var a Accumulator
			var d Digest
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.PRFvInto(uint64(i), 1, data, &d)
				a.AddDigest(&d)
			}
		})
	}
}
