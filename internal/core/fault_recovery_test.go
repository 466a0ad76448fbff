package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"veridb/internal/chaos"
	"veridb/internal/client"
	"veridb/internal/portal"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

// mkInstance builds a DB with a running background verifier and the test
// client provisioned — the shape of every instance a recovery involves
// (active, replica, replacement).
func mkInstance(t testing.TB, seed uint64, key []byte) *DB {
	t.Helper()
	db, err := Open(Config{Seed: seed, VerifyEveryOps: 4})
	if err != nil {
		t.Fatal(err)
	}
	db.Enclave().ProvisionMACKey("alice", key)
	t.Cleanup(db.Close)
	return db
}

func seedKV(t testing.TB, db *DB, rows int) {
	t.Helper()
	exec(t, db, `CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`)
	for i := 0; i < rows; i++ {
		exec(t, db, fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'v%d')`, i, i))
	}
}

// faultKinds is every memory fault the chaos injector fires. Write-path
// faults need the trial workload's UPDATEs; reads fold victim cells into
// the read set for the others.
var faultKinds = []chaos.FaultKind{chaos.BitFlip, chaos.TornWrite, chaos.DroppedWrite, chaos.Rollback}

// faultTrial drives one seeded fault of the given kind through the
// containment path a deployment reaches — inject, detect, fence, Recover,
// resume — with an authenticated client alternating point reads and
// same-length updates against the active instance's portal. On the
// client's first authenticated quarantine response it rebuilds a fresh
// instance from the honest replica with Recover and routes the client
// there. It requires that quarantine response; a replacement that serves
// the replica's data above a nonzero seq floor, with no rollback evidence
// at the client, and answers 20 further queries cleanly; and the failed
// instance still fenced with its verifier stopped. It returns detection
// (fault fired → first quarantine response) and outage (fault fired →
// first verified response from the replacement).
func faultTrial(tb testing.TB, kind chaos.FaultKind, seed uint64) (detection, outage time.Duration) {
	tb.Helper()
	const rows = 24
	key := []byte("pre-exchanged")
	active := mkInstance(tb, seed*1000+1, key)
	replica := mkInstance(tb, seed*1000+2, key)
	seedKV(tb, active, rows)
	seedKV(tb, replica, rows)

	c := client.New("alice", key)
	// do is one signed round trip to db's portal, verified by the client
	// (its tracker fails a repeated seq with client.ErrRollback).
	do := func(db *DB, query string) (*portal.Response, error) {
		req := c.NewRequest(query)
		resp, err := db.Portal().Serve(req)
		if err != nil {
			return nil, err
		}
		return resp, c.VerifyResponse(req, resp)
	}
	workload := func(i int) string {
		if i%2 == 1 { // DroppedWrite needs old and intended images of equal size
			return fmt.Sprintf(`UPDATE kv SET v = 'gen%07d' WHERE k = %d`, i%10_000_000, i%rows)
		}
		return fmt.Sprintf(`SELECT v FROM kv WHERE k = %d`, i%rows)
	}

	in := chaos.New(int64(seed), chaos.MemFault{Kind: kind, AtOp: active.Memory().Stats().Ops + 32, ReplayAfter: 64})
	in.Attach(active.Memory())
	defer in.Detach()

	var faultAt, detectedAt time.Time
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; detectedAt.IsZero(); i++ {
		if time.Now().After(deadline) {
			tb.Fatalf("%v: no quarantine within 60s (fired: %v)", kind, in.Fired())
		}
		_, err := do(active, workload(i))
		if faultAt.IsZero() && len(in.Fired()) > 0 {
			faultAt = time.Now()
		}
		var srvErr *client.ServerError
		switch {
		case err == nil:
		case errors.Is(err, client.ErrQuarantined):
			// Authenticated fencing: VerifyResponse returns ErrQuarantined
			// only after the MAC covering the flag checked out.
			detectedAt = time.Now()
			if faultAt.IsZero() {
				faultAt = detectedAt
			}
		case errors.As(err, &srvErr) && len(in.Fired()) > 0:
			// A replayed stale page can fail a storage-level check before
			// the multiset alarm lands: degraded, authenticated, not fatal.
		default:
			tb.Fatalf("%v: workload query: %v", kind, err)
		}
	}

	// The floor is read after the last request sent to the failed
	// instance. Its portal assigns each seq before the quarantine check,
	// so every data response the client recorded is at or below it.
	floor := active.Portal().Seq()
	if floor == 0 {
		tb.Fatalf("%v: failed instance assigned no seq", kind)
	}
	fresh := mkInstance(tb, seed*1000+100, key)
	if err := fresh.Recover(replica, floor); err != nil {
		tb.Fatalf("%v: Recover from the replica: %v", kind, err)
	}
	resp, err := do(fresh, `SELECT v FROM kv WHERE k = 7`)
	if err != nil {
		tb.Fatalf("%v: first query on the replacement: %v", kind, err)
	}
	outage = time.Since(faultAt)
	if resp.Seq <= floor {
		tb.Fatalf("%v: replacement answered at seq %d, want above the floor %d", kind, resp.Seq, floor)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].S != "v7" {
		tb.Fatalf("%v: replacement returned %v, want the replica's v7", kind, resp.Rows)
	}
	for i := 0; i < 20; i++ {
		if _, err := do(fresh, workload(i)); err != nil {
			tb.Fatalf("%v: query %d after recovery: %v", kind, i, err)
		}
	}
	if err := active.QuarantineError(); !errors.Is(err, ErrQuarantined) {
		tb.Fatalf("%v: failed instance reports %v, want still quarantined", kind, err)
	}
	if active.Memory().VerifierRunning() {
		tb.Fatalf("%v: quarantined instance's verifier still running", kind)
	}
	return detectedAt.Sub(faultAt), outage
}

// TestFaultRecoveryEveryKind runs one containment trial per fault kind.
func TestFaultRecoveryEveryKind(t *testing.T) {
	for i, kind := range faultKinds {
		t.Run(kind.String(), func(t *testing.T) { faultTrial(t, kind, uint64(7+i)) })
	}
}

// TestSupervisorFailoverEndToEnd is the chaos pipeline in one test, with
// the caller as the supervisor: a seeded bit flip lands in a read-only
// workload, the background verifier raises the alarm, the portal fences
// with authenticated quarantine responses, the caller rebuilds a
// replacement from the replica with Recover, and the client — same
// session, same tracker — resumes with sequence continuity and verified
// data.
func TestSupervisorFailoverEndToEnd(t *testing.T) {
	key := []byte("pre-exchanged")
	active := mkInstance(t, 101, key)
	replica := mkInstance(t, 202, key)
	seedKV(t, active, 64)
	seedKV(t, replica, 64)

	c := client.New("alice", key)
	serving := active
	// do is one signed round trip to the instance being served, verified.
	do := func(query string) (*portal.Response, error) {
		req := c.NewRequest(query)
		resp, err := serving.Portal().Serve(req)
		if err != nil {
			return nil, err
		}
		return resp, c.VerifyResponse(req, resp)
	}

	// Arm one bit flip a short way into the workload.
	in := chaos.New(9, chaos.MemFault{Kind: chaos.BitFlip, AtOp: active.Memory().Stats().Ops + 40})
	in.Attach(active.Memory())
	defer in.Detach()

	var floor uint64
	var sawQuarantine, recovered bool
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !recovered {
		resp, err := do(`SELECT v FROM kv WHERE k = 7`)
		switch {
		case errors.Is(err, client.ErrQuarantined):
			// Authenticated fencing: VerifyResponse only returns
			// ErrQuarantined after the MAC (covering the flag) checked out.
			sawQuarantine = true
			floor = active.Portal().Seq()
			fresh := mkInstance(t, 300, key)
			if err := fresh.Recover(replica, floor); err != nil {
				t.Fatalf("Recover from the replica: %v", err)
			}
			serving = fresh
		case errors.Is(err, client.ErrRollback):
			t.Fatalf("sequence continuity broken across failover: %v", err)
		case err != nil:
			t.Fatalf("workload query failed: %v", err)
		case sawQuarantine:
			// First clean response after the quarantine: we are on the
			// replacement. Its data must be the replica's.
			if len(resp.Rows) != 1 || resp.Rows[0][0].S != "v7" {
				t.Fatalf("recovered instance returned %v", resp.Rows)
			}
			if resp.Seq <= floor {
				t.Fatalf("replacement answered at seq %d, want above the floor %d", resp.Seq, floor)
			}
			recovered = true
		}
	}
	if !sawQuarantine {
		t.Fatal("bit flip never produced a quarantine response")
	}
	if !recovered {
		t.Fatal("failover never completed")
	}
	if floor == 0 {
		t.Fatal("failed instance assigned no seq")
	}
	if serving == active {
		t.Fatal("still routing to the quarantined instance")
	}
	// The failed instance's quarantine carries the alarm as evidence, and
	// quarantine stopped its background verifier.
	qerr := active.QuarantineError()
	if !errors.Is(qerr, ErrQuarantined) {
		t.Fatalf("failed instance reports %v, want still quarantined", qerr)
	}
	if qerr.Error() == ErrQuarantined.Error() {
		t.Fatalf("quarantine error %q carries no alarm evidence", qerr)
	}
	if active.Memory().VerifierRunning() {
		t.Fatal("quarantined instance's verifier still running")
	}
	// The replacement keeps serving: a further workload burst stays clean
	// and strictly sequenced (the tracker would flag any repeat).
	for i := 0; i < 20; i++ {
		if _, err := do(`SELECT v FROM kv WHERE k = 3`); err != nil {
			t.Fatalf("post-failover query %d: %v", i, err)
		}
	}
}

// BenchmarkFaultRecovery reports, per fault kind, the mean detection
// latency and client-visible outage of a containment trial.
func BenchmarkFaultRecovery(b *testing.B) {
	for _, kind := range faultKinds {
		b.Run(kind.String(), func(b *testing.B) {
			var detection, outage time.Duration
			for i := 0; i < b.N; i++ {
				d, o := faultTrial(b, kind, uint64(i+1))
				detection += d
				outage += o
			}
			b.ReportMetric(float64(detection.Microseconds())/float64(b.N), "detect-us")
			b.ReportMetric(float64(outage.Microseconds())/float64(b.N), "recovered-us")
		})
	}
}

// TestRecoverVerifiesDestination: a fault in the destination's own
// untrusted memory during the replay fails Recover, and the seq counter
// is not resumed. The destination runs no background verifier (the
// veridb default), and the fault fires on the replay's last protected
// operation, after every alarm poll: only Recover's full verification of
// the destination can see it.
func TestRecoverVerifiesDestination(t *testing.T) {
	replica := mkInstance(t, 601, []byte("k"))
	seedKV(t, replica, 32)
	open := func(seed uint64) *DB {
		db, err := Open(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(db.Close)
		return db
	}
	// A clean replay into a probe instance counts the replay's operations.
	probe := open(602)
	before := probe.Memory().Stats().Ops
	if err := probe.Recover(replica, 0); err != nil {
		t.Fatal(err)
	}
	replayOps := probe.Memory().Stats().Ops - before

	dst := open(603)
	in := chaos.New(3, chaos.MemFault{Kind: chaos.BitFlip, AtOp: dst.Memory().Stats().Ops + replayOps})
	in.Attach(dst.Memory())
	defer in.Detach()
	const floor = 1000
	err := dst.Recover(replica, floor)
	if len(in.Fired()) != 1 {
		t.Fatalf("fault did not fire during the replay (fired: %v)", in.Fired())
	}
	if !errors.Is(err, vmem.ErrTamperDetected) {
		t.Fatalf("Recover with a flipped bit in the destination returned %v, want tamper evidence", err)
	}
	if seq := dst.Portal().Seq(); seq >= floor {
		t.Fatalf("failed Recover resumed the seq counter to %d", seq)
	}
}

// TestRecoverAbortsOnTamperedReplica: tampering with the replica
// mid-recovery (or before it) must abort the rebuild with the tamper
// alarm — a compromised source is never replayed into service.
func TestRecoverAbortsOnTamperedReplica(t *testing.T) {
	key := []byte("k")
	replica := mkInstance(t, 501, key)
	seedKV(t, replica, 32)
	// Corrupt one replica record out of band and touch it so the alarm
	// is pending evidence for the next verification pass.
	if err := tamperFirstRecord(replica); err != nil {
		t.Fatal(err)
	}
	fresh := mkInstance(t, 502, key)
	err := fresh.Recover(replica, 0)
	if err == nil {
		t.Fatal("recovery from tampered replica succeeded")
	}
	if !errors.Is(err, ErrQuarantined) && !errors.Is(err, vmem.ErrTamperDetected) {
		t.Fatalf("recovery failed with %v, want tamper evidence", err)
	}
}

// tamperFirstRecord silently corrupts one kv row through the raw tamper
// interface (bypassing the protected write path): the replacement image
// is a *valid* encoding of a different tuple, so the storage layer
// decodes it happily and only multiset verification can tell it from the
// written one. The touch afterwards folds the corrupt image into the read
// set, so Recover's final verification pass is guaranteed to alarm.
func tamperFirstRecord(db *DB) error {
	m := db.Memory()
	for _, pid := range m.PageIDs() {
		slot := -1
		var forged []byte
		_ = m.Slots(pid, func(s int, raw []byte) bool {
			r, err := record.Decode(raw)
			if err != nil || len(r.Data) != 2 || r.Data[1].S == "" {
				return true // not a kv row (catalog, index, ...)
			}
			evil := r.Clone()
			evil.Data[1] = record.Text("x" + evil.Data[1].S[1:])
			enc := record.Encode(evil)
			if len(enc) != len(raw) {
				return true
			}
			slot, forged = s, enc
			return false
		})
		if slot < 0 {
			continue
		}
		if err := m.TamperRecord(pid, slot, forged); err != nil {
			return err
		}
		_, _ = m.Get(pid, slot)
		return nil
	}
	return errors.New("no record to tamper")
}
