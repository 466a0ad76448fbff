package storage

import (
	"fmt"
	"testing"

	"veridb/internal/record"
	"veridb/internal/vmem"
)

// drainBatched pulls every row through NextBatch with the given capacity.
func drainBatched(t *testing.T, sc Iterator, capacity int) []record.Tuple {
	t.Helper()
	b := NewRowBatch(capacity)
	var out []record.Tuple
	for {
		n, err := sc.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		for i := 0; i < n; i++ {
			out = append(out, b.Row(i))
		}
	}
}

// TestNextBatchMatchesNext runs the same scan row-at-a-time and batch-wise
// (with an odd capacity so batch boundaries never align with shard
// boundaries) over every iterator implementation: single-shard Scanner
// and the k-way merge. Rows must match exactly.
func TestNextBatchMatchesNext(t *testing.T) {
	cases := []struct {
		name   string
		shards int
	}{
		{"scanner", 1},
		{"mergeSequential", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(t, vmem.Config{})
			tb, err := s.CreateTable(shardedSpec(tc.shards))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(int64(i % 7)), record.Float(float64(i))})
			}
			sc, err := tb.SeqScan()
			if err != nil {
				t.Fatal(err)
			}
			want := drain(t, sc)
			sc, err = tb.SeqScan()
			if err != nil {
				t.Fatal(err)
			}
			got := drainBatched(t, sc, 7)
			if len(got) != len(want) {
				t.Fatalf("batched scan returned %d rows, scalar %d", len(got), len(want))
			}
			for i := range got {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("row %d: batched %v, scalar %v", i, got[i], want[i])
				}
			}
			// Rows pulled from a batch must stay valid after the batch is
			// refilled (the Rows slice is reused, tuples are not).
			for i, r := range got {
				if r[0].I != int64(i) {
					t.Fatalf("retained row %d corrupted after refill: %v", i, r)
				}
			}
		})
	}
}

// TestNextBatchPartialAndExhaustion pins the (0, nil) end-of-scan contract
// and that a final partial batch is delivered before it.
func TestNextBatchPartialAndExhaustion(t *testing.T) {
	s := newStore(t, vmem.Config{})
	tb, err := s.CreateTable(shardedSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustInsert(t, tb, record.Tuple{record.Int(int64(i)), record.Int(0), record.Float(0)})
	}
	sc, err := tb.SeqScan()
	if err != nil {
		t.Fatal(err)
	}
	b := NewRowBatch(8)
	if n, err := sc.NextBatch(b); err != nil || n != 8 {
		t.Fatalf("first fill: n=%d err=%v", n, err)
	}
	if n, err := sc.NextBatch(b); err != nil || n != 2 {
		t.Fatalf("partial fill: n=%d err=%v", n, err)
	}
	for i := 0; i < 3; i++ {
		if n, err := sc.NextBatch(b); err != nil || n != 0 {
			t.Fatalf("exhausted fill %d: n=%d err=%v", i, n, err)
		}
	}
}

// TestRowBatchSelection covers the selection-vector accessors the filter
// operators depend on.
func TestRowBatchSelection(t *testing.T) {
	b := NewRowBatch(4)
	for i := 0; i < 4; i++ {
		b.Append(record.Tuple{record.Int(int64(i))})
	}
	if b.Live() != 4 || b.Row(2)[0].I != 2 {
		t.Fatalf("dense batch: live=%d", b.Live())
	}
	b.Sel = []int{1, 3}
	if b.Live() != 2 || b.Row(0)[0].I != 1 || b.Row(1)[0].I != 3 {
		t.Fatalf("selected batch: live=%d row0=%v row1=%v", b.Live(), b.Row(0), b.Row(1))
	}
	b.Reset()
	if b.Live() != 0 || b.Sel != nil {
		t.Fatal("Reset kept state")
	}
}
