package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. The benchmark records spans from its own files, around its
// calls into each layer; spans inside the program are a later change.
const (
	spanOp     = "op." // root prefix: "op.<kind>" is one operation, send to verified
	spanSign   = "client.sign"
	spanEncode = "wire.encode"
	spanWait   = "net.send_wait" // write, server, read one frame
	spanDecode = "wire.decode"
	spanVerify = "client.verify"
)

// span is one timed interval. Start and End are nanoseconds since the
// recorder's epoch; Parent indexes the same client's buffer (-1 for a
// root); the spans of one operation share OpID.
type span struct {
	name       string
	start, end int64
	parent     int32
	opID       uint64
}

// spanBuf is one generator goroutine's span store: kept in memory and
// written out when the run ends. A nil *spanBuf records nothing, which is
// how the untraced run executes the identical code path.
type spanBuf struct {
	client int
	epoch  time.Time
	spans  []span
}

func newSpanBuf(client int, epoch time.Time) *spanBuf {
	return &spanBuf{client: client, epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its handle for end and for children.
func (b *spanBuf) begin(name string, parent int32, opID uint64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), parent: parent, opID: opID})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(h int32) {
	if b == nil {
		return
	}
	b.spans[h].end = int64(time.Since(b.epoch))
}

// record stores a finished root span whose name was only known at its end
// (a TPC-C worker draws its transaction type inside Run).
func (b *spanBuf) record(name string, start, end time.Time, opID uint64) {
	if b != nil {
		b.spans = append(b.spans, span{name: name, start: int64(start.Sub(b.epoch)), end: int64(end.Sub(b.epoch)), parent: -1, opID: opID})
	}
}

// recorderShare is the tracing overhead: the share of the generators' time
// the recorder itself took during a traced run of the given length. The
// cost of one span is measured here, on a scratch buffer; the spans are
// counted. (Comparing the traced run's throughput with the untraced run's
// would drown it: they differ by several percent either way from run to
// run, and on a database that grows as it runs the later run is slower.)
func recorderShare(bufs []*spanBuf, seconds float64) float64 {
	const calibration = 100_000
	scratch := newSpanBuf(0, time.Now())
	t0 := time.Now()
	for i := 0; i < calibration; i++ {
		scratch.end(scratch.begin(spanWait, -1, 0))
	}
	perSpan := time.Since(t0).Seconds() / calibration
	spans := 0
	for _, b := range bufs {
		spans += len(b.spans)
	}
	if seconds == 0 || len(bufs) == 0 {
		return 0
	}
	return float64(spans) * perSpan / (seconds * float64(len(bufs)))
}

// spanLine is the JSONL form: one object per span.
type spanLine struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	OpID    string `json:"op_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans writes every buffer to dir/<workload>.spans.jsonl.
func writeSpans(dir, workload string, bufs []*spanBuf) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	n := 0
	for _, b := range bufs {
		id := func(i int32) string { return fmt.Sprintf("c%d-%d", b.client, i) }
		for i, s := range b.spans {
			line := spanLine{
				ID: id(int32(i)), OpID: fmt.Sprintf("c%d-%d", b.client, s.opID),
				Name: s.name, StartNS: s.start, EndNS: s.end,
			}
			if s.parent >= 0 {
				line.Parent = id(s.parent)
			}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return "", 0, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	return path, n, f.Close()
}

// spanMedians returns, per span name, the median duration in microseconds
// and the sample count.
func spanMedians(bufs []*spanBuf) (map[string]float64, map[string]int) {
	by := map[string][]float64{}
	for _, b := range bufs {
		for _, s := range b.spans {
			by[s.name] = append(by[s.name], float64(s.end-s.start)/1e3)
		}
	}
	med, cnt := map[string]float64{}, map[string]int{}
	for name, v := range by {
		sort.Float64s(v)
		med[name], cnt[name] = quantile(v, 0.5), len(v)
	}
	return med, cnt
}
