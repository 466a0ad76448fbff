package main

import (
	"fmt"

	"veridb"
	"veridb/internal/core"
	"veridb/internal/record"
	"veridb/internal/storage"
	"veridb/internal/vmem"
)

// wire_point_read: uniform point lookups by primary key over the full
// stack, in memory. It does the most work in wire, server, client, portal,
// sql.Normalize, the plan cache and the vmem read path; wal and the
// engine's pipeline breakers are idle.
type pointRead struct {
	*wireInstance
	rows int
}

func setupPointRead(o *options, seed int64, _ string) (instance, error) {
	w, err := openWire(seed, "", o.sz.clients, func(db *veridb.DB) error {
		return loadKV(execOn(db), seed, o.sz.kvRows)
	})
	if err != nil {
		return nil, err
	}
	for i := range w.env.clients {
		w.streams = append(w.streams, &readStream{rng: clientRNG(seed, i), seed: seed, rows: int64(o.sz.kvRows)})
	}
	return &pointRead{wireInstance: w, rows: o.sz.kvRows}, nil
}

// openCoreKV opens the core mirror and loads the kv table into it the way
// set-up loaded the served database.
func openCoreKV(seed int64, dataDir string, rows int) (*core.DB, storage.Engine, error) {
	cdb, err := core.Open(coreConfig(seed, dataDir))
	if err != nil {
		return nil, nil, err
	}
	if err := loadKV(func(q string) error {
		_, err := cdb.Execute(q)
		return err
	}, seed, rows); err != nil {
		cdb.Close()
		return nil, nil, err
	}
	t, err := cdb.Store().Table("kv")
	if err != nil {
		cdb.Close()
		return nil, nil, err
	}
	return cdb, t, nil
}

// kvRow is the stored row for key k at version ver.
func kvRow(seed, k int64, ver uint32) record.Tuple {
	return record.Tuple{record.Int(k), record.Text(kvValue(seed, k, ver))}
}

// kvLower measures what lies below the statements on the mirror's kv
// table: the vmem primitives at the table's cell size, the four direct
// Table calls, and the record codec. It first stops the mirror's
// background verifier: from there on the mirror is driven by this
// goroutine alone and every count is a function of the seed.
func kvLower(o *options, seed int64, cdb *core.DB, t storage.Engine, m *metrics) (vmemPrims, error) {
	cdb.Memory().StopVerifier()
	n := o.sz.pointCalls
	rows := int64(o.sz.kvRows)
	cl, err := cellLen(cdb.Memory())
	if err != nil {
		return vmemPrims{}, err
	}
	prims, err := measurePrims(seed, cl, n)
	if err != nil {
		return prims, fmt.Errorf("vmem primitives: %w", err)
	}
	rng := clientRNG(seed, 100)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(rows)
	}
	row := func(i int) record.Tuple { return kvRow(seed, keys[i], 0) }
	if err := measureStorage(m, cdb.Store(), t, n, row,
		func(i int) record.Tuple { return kvRow(seed, rows+int64(i), 0) }); err != nil {
		return prims, err
	}
	m.set("record.codec_ns", recordCodecNS(n, row))
	return prims, nil
}

// countStatements is the one-client counting pass at the workload's own
// level: n statements from s through the mirror's SQL entry point.
func countStatements(m *metrics, cdb *core.DB, prims vmemPrims, s stream, n int) error {
	calls, err := countCalls(cdb.Memory(), prims, n, func(int) error {
		st := s.next()
		res, err := cdb.Execute(st.text)
		if err == nil {
			err = st.check(res.Rows, res.Affected)
		}
		if err == nil && st.commit != nil {
			st.commit()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("counting pass: %w", err)
	}
	m.set("vmem.prf_evals_per_op", calls.prfs)
	m.set("vmem.protected_ops_per_op", calls.ops())
	return nil
}

// countStorage is the counting pass over the statements' storage
// equivalents: what R4 and R5 are built from.
func countStorage(mem *vmem.Memory, prims vmemPrims, s stream, r3 func(stmt) (float64, error), n int) (vmemCalls, error) {
	calls, err := countCalls(mem, prims, n, func(int) error {
		st := s.next()
		_, err := r3(st)
		if err == nil && st.commit != nil {
			st.commit()
		}
		return err
	})
	if err != nil {
		return calls, fmt.Errorf("counting pass over the storage calls: %w", err)
	}
	return calls, nil
}

func (p *pointRead) ladder(o *options, seed int64, _ string, m *metrics) error {
	cdb, t, err := openCoreKV(seed, "", p.rows)
	if err != nil {
		return err
	}
	defer cdb.Close()
	prims, err := kvLower(o, seed, cdb, t, m)
	if err != nil {
		return err
	}
	// R3: the point SELECT's storage equivalent is Table.Get.
	r3 := func(st stmt) (float64, error) {
		k := record.Int(st.arg.(int64))
		return timeCall(func() error {
			_, ev, err := t.Get(k)
			if err == nil && !ev.Found {
				err = fmt.Errorf("key %v not found", k)
			}
			return err
		})
	}
	reads := func(i int) stream { return &readStream{rng: clientRNG(seed, i), seed: seed, rows: int64(p.rows)} }
	if err := countStatements(m, cdb, prims, reads(101), o.sz.countOps); err != nil {
		return err
	}
	calls, err := countStorage(cdb.Memory(), prims, reads(102), r3, o.sz.countOps)
	if err != nil {
		return err
	}
	perRung := func(rung int) stream { return reads(110 + rung) }
	if err := wireLadder(m, p.env.clients[0], p.env.db, cdb, perRung, perRung, r3, 0, o.sz.pointCalls); err != nil {
		return err
	}
	setLower(m, calls, prims)
	return nil
}
