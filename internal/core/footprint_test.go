package core

import (
	"fmt"
	"strings"
	"testing"
)

// retainedVersionBound is storage's versionBound: with no snapshot pinned,
// writers leave at most this many retained versions and live begin seqs
// behind, however many transactions ran (TestVersionStateBoundedWithoutPins).
const retainedVersionBound = 64

// TestTrustedBytesFlatInRows is the paper's footprint claim (§3.3): the
// database lives in untrusted memory, so with no snapshot pinned the
// trusted bytes the budget counts do not grow with the rows stored. Each
// scale loads 1×, 4× and 16× the rows, then updates and deletes a share of
// them one row at a time, and must end within retainedVersionBound retired
// row versions of the empty table's floor.
func TestTrustedBytesFlatInRows(t *testing.T) {
	const base = 500
	pad := strings.Repeat("p", 64)
	create := func() *DB {
		db := openGovern(t, Config{})
		exec(t, db, `CREATE TABLE f (id INT PRIMARY KEY, v INT, pad TEXT)`)
		return db
	}

	// One retired version's charge: a single-row UPDATE retires exactly
	// one pre-image, which stays charged until the next write reclaims it.
	probe := create()
	exec(t, probe, fmt.Sprintf(`INSERT INTO f VALUES (0, 0, '%s')`, pad))
	before := probe.GovernStats().MemUsed
	exec(t, probe, `UPDATE f SET v = 1 WHERE id = 0`)
	perVersion := probe.GovernStats().MemUsed - before
	if perVersion <= 0 {
		t.Fatalf("a retired version charged %d bytes", perVersion)
	}
	bound := retainedVersionBound * perVersion

	for _, scale := range []int{1, 4, 16} {
		db := create()
		floor := db.GovernStats().MemUsed
		n := base * scale
		for lo := 0; lo < n; lo += 100 {
			var b strings.Builder
			b.WriteString("INSERT INTO f VALUES ")
			for i := lo; i < lo+100; i++ {
				if i > lo {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "(%d, %d, '%s')", i, i, pad)
			}
			exec(t, db, b.String())
		}
		for i := 1; i < n; i += 4 {
			exec(t, db, fmt.Sprintf(`UPDATE f SET v = %d WHERE id = %d`, -i, i))
		}
		for i := 2; i < n; i += 8 {
			exec(t, db, fmt.Sprintf(`DELETE FROM f WHERE id = %d`, i))
		}
		gs := db.GovernStats()
		t.Logf("%d rows: %d trusted bytes over the floor (bound %d, %d pages)",
			n, gs.MemUsed-floor, bound, db.Memory().Stats().PagesAlive)
		if gs.SnapshotPins != 0 || gs.MemUsed-floor > bound {
			t.Fatalf("%d rows: %d trusted bytes over the floor with %d pins, want ≤ %d (%d versions of %d B)",
				n, gs.MemUsed-floor, gs.SnapshotPins, bound, retainedVersionBound, perVersion)
		}
	}
}
