package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"veridb"
	"veridb/internal/record"
	"veridb/internal/wal"
)

// wire_write_durable: the same stack and table as wire_point_read with
// DataDir on a fresh temp dir — the shipped default there is one fsync per
// statement and no automatic checkpoint. Each client owns a disjoint key
// range and sends 50 % UPDATE, 25 % INSERT, 25 % DELETE by primary key. It
// uses the same wire, portal and vmem layers as the read workload but for
// writes, with WAL enqueue + fsync on the blocking path.
type writeDurable struct {
	*wireInstance
	seed    int64
	rows    int
	dataDir string
	models  []*writeModel
}

func setupWriteDurable(o *options, seed int64, dir string) (instance, error) {
	dataDir := filepath.Join(dir, "data")
	w, err := openWire(seed, dataDir, o.sz.clients, func(db *veridb.DB) error {
		return loadKV(execOn(db), seed, o.sz.kvRows)
	})
	if err != nil {
		return nil, err
	}
	wd := &writeDurable{wireInstance: w, seed: seed, rows: o.sz.kvRows, dataDir: dataDir}
	per := int64(o.sz.kvRows / o.sz.clients)
	for i := range w.env.clients {
		m := newWriteModel(seed, i, int64(i)*per, int64(i+1)*per)
		wd.models = append(wd.models, m)
		w.streams = append(w.streams, m)
	}
	return wd, nil
}

// afterWarmup is the durability check every run makes, on what the warm-up
// wrote. Recovery replays the log statement by statement, so the check's
// cost grows with the writes it covers: after the measured run it would add
// a third to the run's length, which only the traced pass can afford.
func (w *writeDurable) afterWarmup(dir string, m *metrics) error {
	return w.crashCheck(dir, m)
}

// postRun repeats the check over everything the run wrote.
func (w *writeDurable) postRun(dir string, m *metrics, traced bool) error {
	if !traced {
		return nil
	}
	return w.crashCheck(dir, m)
}

// crashCheck is the durability check. With nothing in flight it copies the
// data dir — the bytes a crash at this instant would leave, every
// one of them already fsynced because every statement was acknowledged — and
// reopens the copy through recovery and its VerifyAll gate. The live
// instance is never checkpointed and is closed only after the copy is
// taken, so nothing Close does can reach the image. Every acknowledged
// write must be present and no refused one may be.
func (w *writeDurable) crashCheck(dir string, m *metrics) error {
	crash := filepath.Join(dir, "crash-image")
	defer os.RemoveAll(crash)
	diskBytes, err := copyDir(w.dataDir, crash)
	if err != nil {
		return err
	}
	var rowWrites int
	want := map[int64]string{}
	for _, mod := range w.models {
		mod.expected(want)
		rowWrites += mod.rowWrites
	}
	// Rows beyond the clients' ranges (rows not divisible by clients) keep
	// their loaded value.
	for k := int64(len(w.models)) * int64(w.rows/len(w.models)); k < int64(w.rows); k++ {
		want[k] = kvValue(w.seed, k, 0)
	}
	userBytes := float64(w.rows+rowWrites) * float64(record.TupleBytes(kvRow(w.seed, 0, 0)))
	m.set("wal.bytes_per_user_byte", float64(diskBytes)/userBytes)

	t0 := time.Now()
	db, err := veridb.Open(shippedConfig(w.seed, crash))
	if err != nil {
		return fmt.Errorf("reopening the crash image: %w", err)
	}
	defer db.Close()
	m.set("core.recovery_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	if err := db.QuarantineError(); err != nil {
		return fmt.Errorf("crash image opened quarantined: %w", err)
	}
	res, err := db.Exec(`SELECT k, v FROM kv`)
	if err != nil {
		return err
	}
	if len(res.Rows) != len(want) {
		return fmt.Errorf("recovered %d rows, the model holds %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		if v, ok := want[row[0].I]; !ok || v != row[1].S {
			return fmt.Errorf("recovered key %d = %q, the model holds %q (present %v)", row[0].I, row[1].S, v, ok)
		}
	}
	return nil
}

// copyDir copies the regular files of src into dst and returns their total
// size.
func copyDir(src, dst string) (int64, error) {
	var total int64
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		n, err := io.Copy(out, in)
		total += n
		if err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	return total, err
}

// walProbeCalls bounds the directly timed WAL appends: each one is an
// fsync, which a real device makes a thousand times dearer than here.
const walProbeCalls = 2000

func (w *writeDurable) ladder(o *options, seed int64, dir string, m *metrics) error {
	cdb, t, err := openCoreKV(seed, filepath.Join(dir, "core-data"), w.rows)
	if err != nil {
		return err
	}
	defer cdb.Close()
	prims, err := kvLower(o, seed, cdb, t, m)
	if err != nil {
		return err
	}
	// R3: each write's storage equivalent by primary key, under a commit
	// opened and closed outside the timer.
	r3 := func(st stmt) (float64, error) {
		op := st.arg.(writeOp)
		k, row := record.Int(op.key), record.Tuple{record.Int(op.key), record.Text(op.val)}
		c := cdb.Store().BeginCommit()
		defer c.Done()
		return timeCall(func() error {
			switch op.kind {
			case "update":
				return t.UpdateAt(k, row, c)
			case "insert":
				return t.InsertAt(row, c)
			default:
				return t.DeleteAt(k, c)
			}
		})
	}
	// The mirror's one model owns client 0's range and follows every write
	// the ladder makes to the mirror, through SQL or through storage.
	coreModel := newWriteModel(seed, 100, 0, int64(w.rows/len(w.models)))
	if err := countStatements(m, cdb, prims, coreModel, o.sz.countOps); err != nil {
		return err
	}
	calls, err := countStorage(cdb.Memory(), prims, coreModel, r3, o.sz.countOps)
	if err != nil {
		return err
	}

	// wal.Log.Append on the rendered statements, in a log of its own.
	log, _, err := wal.Open(filepath.Join(dir, "wal-probe"))
	if err != nil {
		return err
	}
	defer log.Close()
	probe := newWriteModel(seed, 101, 0, int64(w.rows/len(w.models)))
	appends := kindSamples{}
	for i := 0; i < min(o.sz.pointCalls, walProbeCalls); i++ {
		st := probe.next()
		st.commit()
		us, err := timeCall(func() error {
			_, err := log.Append(wal.RecStmt, []byte(st.text))
			return err
		})
		if err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
		appends[st.kind] = append(appends[st.kind], us)
	}

	if err := wireLadder(m, w.env.clients[0], w.env.db, cdb,
		func(int) stream { return w.models[0] }, func(int) stream { return coreModel },
		r3, appends.mix(), o.sz.pointCalls); err != nil {
		return err
	}
	setLower(m, calls, prims)
	return nil
}
