package engine

import (
	"fmt"
	"sync/atomic"

	"veridb/internal/record"
	"veridb/internal/storage"
)

// spoolSeq distinguishes concurrently created spool tables.
var spoolSeq atomic.Uint64

// Spool is a materialisation point whose buffer lives in the *verifiable
// storage* rather than enclave memory — the extension §5.4 sketches for
// intermediate state that outgrows the EPC: "we can reuse the trusted
// storage of VeriDB for storing the intermediate results (i.e., treat the
// intermediate state as additional external data). Such approach avoids
// heavy-weight secure swap."
//
// On first Open the child is drained into a temporary table keyed by row
// number; every replay is a verified sequential scan of that table, so
// spilled intermediates enjoy exactly the integrity guarantees of base
// data: tampering with a spooled row is caught like tampering with any
// other record. Close drops the temporary table (reading its rows back
// out of the write-read consistent memory).
type Spool struct {
	Child Operator
	// Store hosts the temporary table.
	Store *storage.Store

	exec   *Exec // statement controls; see SetExec
	table  *storage.Table
	name   string
	sc     storage.Iterator
	filled bool
}

// Schema returns the child schema.
func (s *Spool) Schema() Schema { return s.Child.Schema() }

// Open spills the child on first use and (re)starts a verified scan of
// the spooled rows.
func (s *Spool) Open() error {
	if !s.filled {
		if err := s.fill(); err != nil {
			return err
		}
		s.filled = true
	}
	if s.sc != nil {
		s.sc.Close()
	}
	// The temp table is ephemeral (created mid-statement, after the
	// statement's snapshot pinned) and outside MVCC: it is read at its
	// latest version, and only the child reads the snapshot.
	var err error
	s.sc, err = s.table.SeqScanAt(nil)
	return err
}

// fill creates the temporary table and drains the child into it. On any
// error after the table exists — a child error mid-drain, a failed insert —
// the half-filled table is dropped before the error propagates, so failed
// queries leave no orphaned __spool_* tables in the catalog (their pages
// would otherwise stay in the verified set and bloat every VerifyAll).
func (s *Spool) fill() (err error) {
	childSchema := s.Child.Schema()
	cols := make([]record.Column, 0, len(childSchema)+1)
	cols = append(cols, record.Column{Name: "__row", Type: record.TypeInt})
	for i, c := range childSchema {
		cols = append(cols, record.Column{
			Name: fmt.Sprintf("c%d_%s", i, c.Name),
			Type: c.Type,
		})
	}
	s.name = fmt.Sprintf("__spool_%d", spoolSeq.Add(1))
	// Spools are filled and replayed by one goroutine in row order; a
	// single shard keeps the scan a straight chain walk.
	t, err := s.Store.CreateTable(storage.TableSpec{
		Name:       s.name,
		Schema:     record.NewSchema(cols...),
		PrimaryKey: 0,
		Shards:     1,
		// Statement-scoped spill target: versioning it would only pin its
		// short-lived rows, and a statement snapshot pinned before the spool
		// existed must still be allowed to replay it.
		Ephemeral: true,
	})
	if err != nil {
		return err
	}
	s.table = t
	defer func() {
		if err != nil {
			s.Store.DropTable(s.name)
			s.table = nil
		}
	}()
	if err := s.Child.Open(); err != nil {
		return err
	}
	defer s.Child.Close()
	in := NewRowBatch(s.exec.BatchCap())
	row := int64(0)
	for {
		if err := s.exec.Err(); err != nil {
			return err
		}
		n, err := s.Child.NextBatch(in)
		if err != nil || n == 0 {
			return err
		}
		var spilledBytes int64
		for i := 0; i < n; i++ {
			tup := in.Row(i)
			spilled := make(record.Tuple, 0, len(tup)+1)
			spilled = append(spilled, record.Int(row))
			spilled = append(spilled, tup...)
			if err := t.InsertAt(spilled, nil); err != nil {
				return err
			}
			row++
			spilledBytes += record.TupleBytes(spilled)
		}
		// Spooled rows land in the verified store's heap; charge them like
		// any other materialisation so a runaway spill hits the budget
		// instead of the allocator.
		if err := s.exec.ChargeBytes(spilledBytes); err != nil {
			return err
		}
	}
}

// NextBatch replays the next batch of spooled rows through the verified
// scan, stripping the row-number column in place (the scan decodes fresh
// tuples, so re-slicing is safe).
func (s *Spool) NextBatch(dst *RowBatch) (int, error) {
	if s.sc == nil {
		return 0, fmt.Errorf("engine: spool not open")
	}
	dst.Cols = nil // the whole spooled row: the caller's batch may carry a scan's projection
	n, err := s.sc.NextBatch(dst)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		dst.Rows[i] = dst.Rows[i][1:]
	}
	return n, nil
}

// Close releases the current scan; the spool table persists for re-opens
// until Drop.
func (s *Spool) Close() error {
	if s.sc != nil {
		s.sc.Close()
		s.sc = nil
	}
	return nil
}

// Drop removes the temporary table from the store (and its pages from the
// verified set). Callers run it when the query finishes.
func (s *Spool) Drop() error {
	s.Close()
	if s.table == nil {
		return nil
	}
	s.table = nil
	s.filled = false
	return s.Store.DropTable(s.name)
}
