package bench

import (
	"fmt"
	"testing"
)

func TestRunExecBatchSmall(t *testing.T) {
	run, err := RunExecBatch(ExecBatchConfig{Rows: 2000, Sizes: []int{1, 8}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Points) != 2*len(execBatchJobs) {
		t.Fatalf("points = %d", len(run.Points))
	}
	for _, pt := range run.Points {
		if pt.Latency <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
	}
	// RunExecBatch fails internally on row-count divergence; pin the scan
	// and aggregate shapes here too.
	byOp := make(map[string]int)
	for _, pt := range run.Points {
		byOp[pt.Op] = pt.Rows
	}
	if byOp["scan"] != 2000 || byOp["aggregate"] != 16 || byOp["sort"] != 100 {
		t.Fatalf("row counts %v", byOp)
	}
	if len(run.Speedup) != len(execBatchJobs) {
		t.Fatalf("speedup entries %v", run.Speedup)
	}
}

// BenchmarkExecBatch times the full-scan drain at each batch capacity so
// `go test -bench ExecBatch` tracks what batch size buys across PRs.
func BenchmarkExecBatch(b *testing.B) {
	db, err := execBatchDB(ExecBatchConfig{Rows: 20_000}.withDefaults())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for _, size := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := runExecBatchQuery(db, execBatchJobs[0].sql, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
