package client

import (
	"crypto/hmac"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"veridb/internal/govern"
	"veridb/internal/portal"
	"veridb/internal/record"
	"veridb/internal/wire"
)

func TestSeqTrackerSequential(t *testing.T) {
	var s SeqTracker
	for i := uint64(1); i <= 100; i++ {
		if err := s.Add(i); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("sequential numbers not merged: %d intervals", s.Len())
	}
	if s.Max() != 100 {
		t.Fatalf("Max = %d", s.Max())
	}
}

func TestSeqTrackerDetectsRepeat(t *testing.T) {
	var s SeqTracker
	for _, n := range []uint64{5, 6, 7} {
		if err := s.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []uint64{5, 6, 7} {
		if err := s.Add(n); !errors.Is(err, ErrRollback) {
			t.Fatalf("repeat of %d not detected: %v", n, err)
		}
	}
}

func TestSeqTrackerOutOfOrder(t *testing.T) {
	// Footnote 1: network reordering means numbers may arrive out of
	// order; only repetition is evidence.
	var s SeqTracker
	perm := rand.New(rand.NewSource(4)).Perm(500)
	for _, i := range perm {
		if err := s.Add(uint64(i + 1)); err != nil {
			t.Fatalf("Add(%d): %v", i+1, err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("full permutation not merged into one interval: %d", s.Len())
	}
}

func TestSeqTrackerGapsKeptSeparate(t *testing.T) {
	var s SeqTracker
	for _, n := range []uint64{1, 3, 5, 10} {
		if err := s.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("intervals = %v", s.Intervals())
	}
	// Filling the gap merges.
	if err := s.Add(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(4); err != nil {
		t.Fatal(err)
	}
	got := s.Intervals()
	if len(got) != 2 || got[0] != [2]uint64{1, 5} || got[1] != [2]uint64{10, 10} {
		t.Fatalf("intervals = %v", got)
	}
}

func TestSeqTrackerMergeLeftOnly(t *testing.T) {
	var s SeqTracker
	s.Add(1)
	s.Add(2)
	s.Add(7)
	if err := s.Add(3); err != nil {
		t.Fatal(err)
	}
	got := s.Intervals()
	if len(got) != 2 || got[0] != [2]uint64{1, 3} {
		t.Fatalf("intervals = %v", got)
	}
}

func TestSeqTrackerInsideIntervalDetected(t *testing.T) {
	var s SeqTracker
	for i := uint64(10); i <= 20; i++ {
		s.Add(i)
	}
	if err := s.Add(15); !errors.Is(err, ErrRollback) {
		t.Fatalf("interior repeat not detected: %v", err)
	}
}

func TestNewRequestQIDsUnique(t *testing.T) {
	c := New("alice", []byte("key"))
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		r := c.NewRequest("SELECT 1")
		if seen[r.QID] {
			t.Fatalf("qid %d reused", r.QID)
		}
		seen[r.QID] = true
		if len(r.MAC) == 0 || r.ClientID != "alice" {
			t.Fatalf("bad request %+v", r)
		}
	}
}

func TestSnapshotRequestHelpers(t *testing.T) {
	c := New("alice", []byte("key"))
	begin := c.NewBeginSnapshotRequest()
	if begin.Query != "BEGIN SNAPSHOT" {
		t.Fatalf("begin query %q", begin.Query)
	}
	commit := c.NewCommitSnapshotRequest()
	if commit.Query != "COMMIT" {
		t.Fatalf("commit query %q", commit.Query)
	}
	if begin.QID == commit.QID {
		t.Fatal("qids collide")
	}
	for _, r := range []portal.Request{begin, commit} {
		want := portal.SignRequestTimeout([]byte("key"), "alice", r.QID, r.Query, 0)
		if !hmac.Equal(want, r.MAC) {
			t.Fatalf("bad MAC on %q", r.Query)
		}
	}
}

// TestEveryResponseBitIsUnderTheMAC: the one wire encoding carries every
// response field in a form the client re-derives the MAC from, so no single
// bit of a TResult frame — header or payload — can be flipped into a
// different response the client accepts. Each flip must end in a typed
// frame/payload decode error, a frame that is no longer a result, ErrWrongQID
// or ErrBadMAC, or a response deep-equal to the original (slack bits the
// decoder normalises away). The response exercises every cell type, NULL,
// the error message and the quarantine flag.
func TestEveryResponseBitIsUnderTheMAC(t *testing.T) {
	key := []byte("bitflip-key")
	req := New("alice", key).NewRequest("SELECT * FROM t")
	orig := &portal.Response{
		QID:      req.QID,
		Seq:      41,
		Columns:  []string{"i", "f", "s", "b", "n"},
		Affected: 3,
		Rows: []record.Tuple{
			{record.Int(1), record.Float(2.5), record.Text("1"), record.Bool(true), record.Null(record.TypeText)},
			{record.Int(-7), record.Float(0), record.Text("NULL"), record.Bool(false), record.Null(record.TypeInt)},
		},
		ErrMsg:      "storage: integrity alarm",
		Quarantined: true,
	}
	orig.MAC = portal.SignResponse(key, orig)
	frame := wire.AppendFrame(nil, wire.TResult, orig.QID, wire.EncodeResult(orig))

	// accept runs the client's acceptance path over raw frame bytes.
	accept := func(buf []byte) (*portal.Response, error) {
		f, _, err := wire.DecodeFrame(buf, 0)
		if err != nil {
			return nil, err
		}
		if f.Type != wire.TResult {
			return nil, errNotAResult
		}
		resp, err := wire.DecodeResult(f.QID, f.Payload)
		if err != nil {
			return nil, err
		}
		// A fresh client per frame: replaying the same seq into one tracker
		// would trip the rollback defence, which is not under test here.
		verr := New("alice", key).VerifyResponse(req, resp)
		if errors.Is(verr, ErrQuarantined) {
			verr = nil // the original's own verified outcome
		}
		return resp, verr
	}
	if resp, err := accept(frame); err != nil || !reflect.DeepEqual(resp, orig) {
		t.Fatalf("unflipped frame: %+v, %v", resp, err)
	}

	rejections := []error{
		wire.ErrBadMagic, wire.ErrBadVersion, wire.ErrBadType, wire.ErrTruncated,
		wire.ErrBadPayload, wire.ErrTooLarge, errNotAResult, ErrWrongQID, ErrBadMAC,
	}
	equal := 0
	for bit := 0; bit < len(frame)*8; bit++ {
		flipped := append([]byte(nil), frame...)
		flipped[bit/8] ^= 1 << (bit % 8)
		resp, err := accept(flipped)
		if err == nil {
			if !reflect.DeepEqual(resp, orig) {
				t.Fatalf("bit %d (byte %d): a different response was accepted:\n got %+v\nwant %+v", bit, bit/8, resp, orig)
			}
			equal++
			continue
		}
		typed := false
		for _, want := range rejections {
			typed = typed || errors.Is(err, want)
		}
		if !typed {
			t.Fatalf("bit %d (byte %d): untyped rejection %v", bit, bit/8, err)
		}
	}
	t.Logf("%d bits flipped: %d normalised to the original, the rest rejected", len(frame)*8, equal)
}

var errNotAResult = errors.New("frame is not a result")

// TestVerifyResponseTypedRollback: a server replaying an old sequence
// number (state rollback) yields a *RollbackError carrying the evidence.
func TestVerifyResponseTypedRollback(t *testing.T) {
	c, p, key := newClientPortal(t, &countExec{})
	req1 := c.NewRequest("SELECT 1")
	resp1, err := p.Serve(req1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyResponse(req1, resp1); err != nil {
		t.Fatal(err)
	}
	// The "server" answers the next request with the previous sequence
	// number, properly MACed — exactly what a rolled-back-and-replayed
	// instance would produce.
	req2 := c.NewRequest("SELECT 2")
	rolled := &portal.Response{QID: req2.QID, Seq: resp1.Seq}
	rolled.MAC = portal.SignResponse(key, rolled)
	err = c.VerifyResponse(req2, rolled)
	var rb *RollbackError
	if !errors.As(err, &rb) {
		t.Fatalf("replayed seq returned %v, want *RollbackError", err)
	}
	if !errors.Is(err, ErrRollback) {
		t.Fatal("typed rollback does not match ErrRollback")
	}
	if rb.Seq != resp1.Seq || rb.Lo > rb.Seq || rb.Hi < rb.Seq {
		t.Fatalf("evidence %+v for replayed seq %d", rb, resp1.Seq)
	}
}

// TestVerifyResponseTypesOverload: the overload refusal survives the trip
// through the string-typed wire error and comes back as a typed
// *govern.OverloadedError with its RetryAfter hint intact.
func TestVerifyResponseTypesOverload(t *testing.T) {
	exec := &shedExec{sheds: 1}
	c, p, _ := newClientPortal(t, exec)
	req := c.NewRequest("SELECT 1")
	resp, err := p.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	verr := c.VerifyResponse(req, resp)
	var oe *govern.OverloadedError
	if !errors.As(verr, &oe) {
		t.Fatalf("verify error not typed: %v", verr)
	}
	if oe.RetryAfter != 25*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 25ms", oe.RetryAfter)
	}
}
