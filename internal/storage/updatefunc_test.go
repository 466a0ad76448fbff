package storage

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"veridb/internal/record"
	"veridb/internal/vmem"
)

func TestUpdateFuncBasic(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	mustInsert(t, tb, record.Tuple{record.Int(1), record.Int(10), record.Float(5)})
	err := tb.UpdateFuncAt(record.Int(1), func(row record.Tuple) (record.Tuple, error) {
		row[2] = record.Float(row[2].F * 2)
		return row, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tup, _, _ := tb.Get(record.Int(1))
	if tup[2].F != 10 {
		t.Fatalf("row %v", tup)
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateFuncRejectsChainColumnChange(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec()) // chain on column 1 (count)
	mustInsert(t, tb, record.Tuple{record.Int(1), record.Int(10), record.Float(5)})
	err := tb.UpdateFuncAt(record.Int(1), func(row record.Tuple) (record.Tuple, error) {
		row[1] = record.Int(99) // chained column
		return row, nil
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "chain column") {
		t.Fatalf("chain-column change accepted: %v", err)
	}
	// Primary key change rejected too.
	err = tb.UpdateFuncAt(record.Int(1), func(row record.Tuple) (record.Tuple, error) {
		row[0] = record.Int(2)
		return row, nil
	}, nil)
	if err == nil {
		t.Fatal("primary-key change accepted")
	}
	// Row untouched after rejections.
	tup, _, _ := tb.Get(record.Int(1))
	if tup[1].I != 10 {
		t.Fatalf("row mutated by rejected update: %v", tup)
	}
}

func TestUpdateFuncMissingRowAndCallbackError(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	err := tb.UpdateFuncAt(record.Int(404), func(row record.Tuple) (record.Tuple, error) {
		return row, nil
	}, nil)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	mustInsert(t, tb, record.Tuple{record.Int(1), record.Int(1), record.Float(1)})
	sentinel := errors.New("abort")
	err = tb.UpdateFuncAt(record.Int(1), func(record.Tuple) (record.Tuple, error) {
		return nil, sentinel
	}, nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("callback error lost: %v", err)
	}
}

// TestUpdateFuncAtomicUnderContention is the lost-update scenario the
// primitive exists for: N concurrent increments must all land.
func TestUpdateFuncAtomicUnderContention(t *testing.T) {
	s := newStore(t, vmem.Config{Partitions: 8})
	tb, _ := s.CreateTable(itemsSpec())
	mustInsert(t, tb, record.Tuple{record.Int(1), record.Int(5), record.Float(0)})
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := tb.UpdateFuncAt(record.Int(1), func(row record.Tuple) (record.Tuple, error) {
					row[2] = record.Float(row[2].F + 1)
					return row, nil
				}, nil)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	tup, _, _ := tb.Get(record.Int(1))
	if tup[2].F != workers*perWorker {
		t.Fatalf("lost updates: %v of %d", tup[2].F, workers*perWorker)
	}
	if err := s.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestScannerVisitedCountsBoundaries(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, _ := s.CreateTable(itemsSpec())
	for i := 10; i <= 50; i += 10 {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(1), record.Float(0)})
	}
	// Range [25, 35] returns one row (30) but must visit the boundary
	// witnesses (20 as the ≤-start anchor; 30's nKey 40 proves the top).
	lo, hi := record.Int(25), record.Int(35)
	sc, err := tb.RangeScan(0, &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, sc)
	if len(rows) != 1 || rows[0][0].I != 30 {
		t.Fatalf("rows %v", rows)
	}
	if v := sc.Visited(); v < 2 {
		t.Fatalf("Visited = %d; boundary records not counted", v)
	}
}
