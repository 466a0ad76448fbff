package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"veridb/internal/chaos"
	"veridb/internal/client"
	"veridb/internal/portal"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

// mkInstance builds a DB with a running background verifier and the test
// client provisioned — the shape of every instance in a failover chain
// (active, replica, replacements).
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

// TestSupervisorFailoverEndToEnd is the chaos pipeline in one test: a
// seeded bit flip lands mid-workload, the background verifier raises the
// alarm, the portal fences with authenticated quarantine responses, the
// supervisor rebuilds a replacement from the replica, gates it on a full
// verification pass, and the client — same session, same tracker —
// resumes with sequence continuity and verified data.
func TestSupervisorFailoverEndToEnd(t *testing.T) {
	key := []byte("pre-exchanged")
	active := mkInstance(t, 101, key)
	replica := mkInstance(t, 202, key)
	seedKV(t, active, 64)
	seedKV(t, replica, 64)

	// The failover is held open until the client has been fenced once: the
	// supervisor's poll can otherwise replace the quarantined instance
	// between two of the client's requests, and this test is about the
	// client seeing the fencing and then the recovery.
	fenced := make(chan struct{})
	var freshSeed uint64 = 300
	sup, err := NewSupervisor(SupervisorConfig{
		Active:  active,
		Replica: replica,
		Fresh: func() (*DB, error) {
			select {
			case <-fenced:
			case <-time.After(20 * time.Second): // the workload loop reports the failure
			}
			freshSeed++
			return mkInstance(t, freshSeed, key), nil
		},
		Poll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	c := client.New("alice", key)
	// do is one signed round trip through the supervisor, verified.
	do := func(query string) (*portal.Response, error) {
		req := c.NewRequest(query)
		resp, err := sup.Serve(req)
		if err != nil {
			return nil, err
		}
		return resp, c.VerifyResponse(req, resp)
	}

	// Arm one bit flip a short way into the workload.
	in := chaos.New(9, chaos.MemFault{Kind: chaos.BitFlip, AtOp: active.Memory().Stats().Ops + 40})
	in.Attach(active.Memory())
	defer in.Detach()

	var sawQuarantine, recovered bool
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !recovered {
		resp, err := do(`SELECT v FROM kv WHERE k = 7`)
		switch {
		case errors.Is(err, client.ErrQuarantined):
			// Authenticated fencing: VerifyResponse only returns
			// ErrQuarantined after the MAC (covering the flag) checked out.
			if !sawQuarantine {
				close(fenced)
			}
			sawQuarantine = true
		case errors.Is(err, client.ErrRollback):
			t.Fatalf("sequence continuity broken across failover: %v", err)
		case err != nil:
			t.Fatalf("workload query failed: %v", err)
		case sawQuarantine:
			// First clean response after the quarantine window: we are on
			// the replacement. Its data must be the replica's.
			if len(resp.Rows) != 1 || resp.Rows[0][0].S != "v7" {
				t.Fatalf("recovered instance returned %v", resp.Rows)
			}
			recovered = true
		}
	}
	if !sawQuarantine {
		t.Fatal("bit flip never produced a quarantine response")
	}
	if !recovered {
		t.Fatalf("failover never completed: supervisor err %v", sup.Err())
	}

	recs := sup.Failovers()
	if len(recs) != 1 {
		t.Fatalf("failovers %v, want exactly one", recs)
	}
	if recs[0].Alarm == "" || recs[0].SeqFloor == 0 {
		t.Fatalf("record %+v missing evidence", recs[0])
	}
	if recs[0].Recovered.Before(recs[0].Detected) {
		t.Fatalf("record %+v recovered before detection", recs[0])
	}
	if sup.Active() == active {
		t.Fatal("supervisor still routes to the quarantined instance")
	}
	// Quarantine stopped the failed instance's scanner pool.
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
	// The failed instance answers direct requests with its quarantine
	// error, still fenced.
	if err := active.QuarantineError(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("failed instance reports %v", err)
	}
}

// faultKinds is every memory fault the chaos injector fires. Write-path
// faults need the trial workload's UPDATEs; reads fold victim cells into
// the read set for the others.
var faultKinds = []chaos.FaultKind{chaos.BitFlip, chaos.TornWrite, chaos.DroppedWrite, chaos.Rollback}

// faultTrial drives one seeded fault of the given kind through the whole
// containment pipeline — inject, detect, fence, fail over, recover — with
// an authenticated client alternating point reads and same-length updates.
// It requires an authenticated quarantine response, a failover record and
// a replacement resuming above a nonzero seq floor, and returns detection
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
	// As in TestSupervisorFailoverEndToEnd, the failover is held open until
	// the client has been fenced once: detection is what the client sees.
	fenced := make(chan struct{})
	var fenceOnce sync.Once
	release := func() { fenceOnce.Do(func() { close(fenced) }) }
	freshSeed := seed*1000 + 100
	sup, err := NewSupervisor(SupervisorConfig{
		Active:  active,
		Replica: replica,
		Fresh: func() (*DB, error) {
			<-fenced
			freshSeed++
			return mkInstance(tb, freshSeed, key), nil
		},
		Poll: time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer sup.Close()
	defer release() // a failed trial must not leave the watcher parked in Fresh

	c := client.New("alice", key)
	in := chaos.New(int64(seed), chaos.MemFault{Kind: kind, AtOp: active.Memory().Stats().Ops + 32, ReplayAfter: 64})
	in.Attach(active.Memory())
	defer in.Detach()

	var faultAt, detectedAt time.Time
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			tb.Fatalf("%v: no recovery within 60s (fired: %v, supervisor: %v)", kind, in.Fired(), sup.Err())
		}
		query := fmt.Sprintf(`SELECT v FROM kv WHERE k = %d`, i%rows)
		if i%2 == 1 { // DroppedWrite needs old and intended images of equal size
			query = fmt.Sprintf(`UPDATE kv SET v = 'gen%07d' WHERE k = %d`, i%10_000_000, i%rows)
		}
		req := c.NewRequest(query)
		resp, err := sup.Serve(req)
		if err == nil {
			err = c.VerifyResponse(req, resp)
		}
		if faultAt.IsZero() && len(in.Fired()) > 0 {
			faultAt = time.Now()
		}
		var srvErr *client.ServerError
		switch {
		case err == nil && !detectedAt.IsZero():
			recs := sup.Failovers()
			if len(recs) == 0 || recs[len(recs)-1].SeqFloor == 0 {
				tb.Fatalf("%v: recovered with failover records %+v, want one resuming above a nonzero seq floor", kind, recs)
			}
			return detectedAt.Sub(faultAt), time.Since(faultAt)
		case err == nil:
		case errors.Is(err, client.ErrQuarantined):
			if detectedAt.IsZero() {
				detectedAt = time.Now()
				if faultAt.IsZero() {
					faultAt = detectedAt
				}
				release()
			}
		case errors.As(err, &srvErr) && len(in.Fired()) > 0:
			// A replayed stale page can fail a storage-level check before
			// the multiset alarm lands: degraded, authenticated, not fatal.
		default:
			tb.Fatalf("%v: workload query: %v", kind, err)
		}
	}
}

// TestFaultRecoveryEveryKind runs one containment trial per fault kind.
func TestFaultRecoveryEveryKind(t *testing.T) {
	for i, kind := range faultKinds {
		t.Run(kind.String(), func(t *testing.T) { faultTrial(t, kind, uint64(7+i)) })
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

// TestSupervisorLeavesCleanInstanceAlone: no alarm, no failover.
func TestSupervisorLeavesCleanInstanceAlone(t *testing.T) {
	key := []byte("k")
	active := mkInstance(t, 111, key)
	replica := mkInstance(t, 222, key)
	seedKV(t, active, 8)
	seedKV(t, replica, 8)
	sup, err := NewSupervisor(SupervisorConfig{
		Active:  active,
		Replica: replica,
		Fresh:   func() (*DB, error) { return mkInstance(t, 333, key), nil },
		Poll:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	time.Sleep(20 * time.Millisecond)
	if got := sup.Failovers(); len(got) != 0 {
		t.Fatalf("clean instance failed over: %v", got)
	}
	if sup.Active() != active {
		t.Fatal("active instance changed without an alarm")
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
