package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"veridb"
	"veridb/internal/client"
	"veridb/internal/core"
	"veridb/internal/enclave"
	"veridb/internal/page"
	"veridb/internal/plan"
	"veridb/internal/portal"
	"veridb/internal/record"
	"veridb/internal/sethash"
	"veridb/internal/sql"
	"veridb/internal/storage"
	"veridb/internal/vmem"
	"veridb/internal/wire"
)

// The ladder replays a workload's generated statements from one goroutine
// through successively deeper exported entry points and takes the median
// of each rung:
//
//	R0 loopback round trip (sign, encode, send/wait, decode, verify)
//	R1 veridb.DB.Serve(req)           — and the same on the core mirror
//	R2 core.DB.ExecuteSession
//	R3 the equivalent storage.Table calls
//	R4 the vmem.Memory calls R3's operations make
//	R5 sethash.Key.PRFv × the PRF evaluations R3's operations make
//
// A layer's self time is its rung minus the next rung down and minus the
// side calls timed directly. The self times therefore telescope to R0 by
// construction; README.md says what the independent check is.

// coreConfig mirrors what veridb.Open builds from shippedConfig, for the
// rungs below the public API (R2 and down need core.DB's Store and
// Memory). ladder.r1_core_us against ladder.r1_us shows whether the
// mirror still matches.
func coreConfig(seed int64, dataDir string) core.Config {
	return core.Config{
		Memory:         vmem.Config{Mode: vmem.ModeRSWS, Partitions: 16},
		Join:           plan.JoinAuto,
		VerifyEveryOps: 1000,
		ExecBatchSize:  storage.DefaultBatchCapacity,
		PlanCacheSize:  128,
		Seed:           uint64(seed),
		DataDir:        dataDir,
	}
}

// kindSamples collects one rung's per-call microseconds by statement kind.
type kindSamples map[string][]float64

// mix reduces a rung to one figure: each kind's median weighted by the
// kind's share of the calls, so rungs over the same statement mix subtract
// meaningfully (a median over the pooled calls would be one kind's).
func (k kindSamples) mix() float64 {
	total, sum := 0, 0.0
	for _, v := range k {
		total += len(v)
	}
	for _, v := range k {
		sum += median(v) * float64(len(v)) / float64(total)
	}
	return sum
}

// opCounter is a vmem.Hook that classifies protected operations. It must
// only be installed while a single goroutine drives the memory and the
// background verifier is stopped.
type opCounter struct{ ops, inserts, updates uint64 }

func (c *opCounter) MutateWrite(_ uint64, _ int, old, intended []byte) []byte {
	if old == nil {
		c.inserts++
	} else {
		c.updates++
	}
	return intended
}

func (c *opCounter) OpDone(uint64) { c.ops++ }

// vmemCalls is what one operation costs in the verified memory: how many
// protected calls of each kind it makes and how many PRF evaluations.
type vmemCalls struct{ gets, updates, inserts, deletes, prfs float64 }

func (v vmemCalls) ops() float64 { return v.gets + v.updates + v.inserts + v.deletes }

// vmemPrims is the measured cost of each protected primitive on cells of
// the workload's size, and of one PRF evaluation on such a cell.
type vmemPrims struct {
	getUS, updateUS, insertUS, deleteUS     float64
	getPRF, updatePRF, insertPRF, deletePRF float64
	prfUS                                   float64
}

// r4 is the vmem rung: the measured cost of the calls c describes.
func (p vmemPrims) r4(c vmemCalls) float64 {
	return c.gets*p.getUS + c.updates*p.updateUS + c.inserts*p.insertUS + c.deletes*p.deleteUS
}

// r5 is the PRF rung.
func (p vmemPrims) r5(c vmemCalls) float64 { return c.prfs * p.prfUS }

// measurePrims times vmem.Memory.Get/Update/Insert/Delete and
// sethash.Key.PRFv on a scratch memory with cells of cellLen bytes, n calls
// each, and counts each primitive's PRF evaluations. The five calls are
// timed in turn inside one loop, so a slow spell of the host falls on all
// of them alike and the rungs built from them keep their order.
func measurePrims(seed int64, cellLen, n int) (vmemPrims, error) {
	var p vmemPrims
	mem, err := vmem.New(enclave.NewForTest(uint64(seed)), vmem.Config{Mode: vmem.ModeRSWS, Partitions: rswsPartitions})
	if err != nil {
		return p, err
	}
	rng := rand.New(rand.NewSource(seed))
	cell, cell2 := make([]byte, cellLen), make([]byte, cellLen)
	rng.Read(cell)
	rng.Read(cell2)
	type loc struct {
		pid  uint64
		slot int
	}
	pid, err := mem.NewPage()
	if err != nil {
		return p, err
	}
	insert := func() (loc, error) {
		for {
			slot, err := mem.Insert(pid, cell)
			if err == nil {
				return loc{pid, slot}, nil
			}
			if !errors.Is(err, page.ErrPageFull) {
				return loc{}, err
			}
			if pid, err = mem.NewPage(); err != nil {
				return loc{}, err
			}
		}
	}
	locs := make([]loc, n)
	for i := range locs {
		if locs[i], err = insert(); err != nil {
			return p, err
		}
	}
	rng.Shuffle(n, func(i, j int) { locs[i], locs[j] = locs[j], locs[i] })
	key := sethash.KeyFromSeed(uint64(seed))
	var sink sethash.Digest
	var fresh loc
	prims := []struct {
		us, prfs *float64
		call     func(i int) error
	}{
		{&p.getUS, &p.getPRF, func(i int) error { _, err := mem.Get(locs[i].pid, locs[i].slot); return err }},
		{&p.updateUS, &p.updatePRF, func(i int) error { return mem.Update(locs[i].pid, locs[i].slot, cell2) }},
		{&p.insertUS, &p.insertPRF, func(int) (err error) { fresh, err = insert(); return err }},
		{&p.deleteUS, &p.deletePRF, func(int) error { return mem.Delete(fresh.pid, fresh.slot) }},
		{&p.prfUS, new(float64), func(i int) error {
			d := key.PRFv(uint64(i), uint64(i), cell)
			sink.XOR(&d)
			return nil
		}},
	}
	us := make([][]float64, len(prims))
	evals := make([]uint64, len(prims))
	for i := 0; i < n; i++ {
		for k, prim := range prims {
			before := mem.Stats().PRFEvals
			t, err := timeCall(func() error { return prim.call(i) })
			if err != nil {
				return p, err
			}
			us[k] = append(us[k], t)
			evals[k] += mem.Stats().PRFEvals - before
		}
	}
	for k, prim := range prims {
		*prim.us, *prim.prfs = median(us[k]), float64(evals[k])/float64(n)
	}
	if sink.Zero() {
		return p, errors.New("PRF produced the zero digest")
	}
	return p, nil
}

// countCalls runs f n times from this goroutine with a classifying hook on
// mem and returns the average protected calls and PRF evaluations per
// call. The caller has stopped mem's background verifier, so with the same
// seed the counts repeat exactly. Gets and deletes are the two kinds the
// hook cannot see apart; the PRF total separates them.
func countCalls(mem *vmem.Memory, p vmemPrims, n int, f func(i int) error) (vmemCalls, error) {
	var h opCounter
	mem.SetHook(&h)
	defer mem.SetHook(nil)
	before := mem.Stats()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return vmemCalls{}, err
		}
	}
	after := mem.Stats()
	if got := after.Ops - before.Ops; got != h.ops {
		return vmemCalls{}, fmt.Errorf("hook saw %d protected operations, Stats.Ops moved by %d (is the verifier or another goroutine running?)", h.ops, got)
	}
	prfs := float64(after.PRFEvals - before.PRFEvals)
	ins, upd := float64(h.inserts), float64(h.updates)
	rest := float64(h.ops) - ins - upd // gets + deletes
	dels := 0.0
	if p.getPRF != p.deletePRF {
		dels = (p.getPRF*rest + p.updatePRF*upd + p.insertPRF*ins - prfs) / (p.getPRF - p.deletePRF)
	}
	fn := float64(n)
	return vmemCalls{
		gets: (rest - dels) / fn, updates: upd / fn, inserts: ins / fn, deletes: dels / fn, prfs: prfs / fn,
	}, nil
}

// cellLen is the median stored record length in mem: the workload's cell
// size, read from the live pages.
func cellLen(mem *vmem.Memory) (int, error) {
	var lens []int
	ids := mem.PageIDs()
	step := max(1, len(ids)/64)
	for i := 0; i < len(ids); i += step {
		if err := mem.Slots(ids[i], func(_ int, rec []byte) bool {
			lens = append(lens, len(rec))
			return true
		}); err != nil {
			return 0, err
		}
	}
	if len(lens) == 0 {
		return 0, errors.New("no stored records to size cells from")
	}
	sort.Ints(lens)
	return lens[len(lens)/2], nil
}

// climbBudget bounds the time one climb may take.
const climbBudget = 20 * time.Second

// rung is one entry point a statement can be pushed through. run executes
// st at that depth, times only the entry-point call, and checks the answer.
type rung struct {
	name string
	s    stream
	run  func(st stmt) (us float64, err error)
}

// climb pushes n statements through every rung in turn inside one loop,
// so a slow spell of the host falls on all rungs alike and their
// differences stay meaningful. Each rung draws its own statement: handing
// one statement down the rungs would let every deeper rung find the rows
// the one above just touched still in the processor's caches. The loop
// also ends when climbBudget is spent: on the durable workload four of the
// rungs wait for an fsync each, and in a spell in which the host's disk
// takes milliseconds over one, n rounds would outlast the time a run may
// take. The medians are then over fewer calls.
func climb(n int, rungs []rung) (map[string]kindSamples, error) {
	out := map[string]kindSamples{}
	for _, r := range rungs {
		out[r.name] = kindSamples{}
	}
	start := time.Now()
	for i := 0; i < n && time.Since(start) < climbBudget; i++ {
		for _, r := range rungs {
			st := r.s.next()
			us, err := r.run(st)
			if err != nil {
				return nil, fmt.Errorf("%s: %q: %w", r.name, st.text, err)
			}
			if st.commit != nil {
				st.commit()
			}
			out[r.name][st.kind] = append(out[r.name][st.kind], us)
		}
	}
	return out, nil
}

// checked is the tail of every rung's run: the call's time if it
// succeeded and answered what the model expects.
func checked(st stmt, us float64, err error, rows []record.Tuple, affected int) (float64, error) {
	if err == nil {
		err = st.check(rows, affected)
	}
	return us, err
}

// exchange is one request and its endorsed response, kept from R1 so the
// side calls are timed on real payloads.
type exchange struct {
	kind string
	req  portal.Request
	resp *portal.Response
}

// serveRung is R1: the portal's Serve, signing outside the timer.
func serveRung(name string, s stream, c *client.Client, serve func(portal.Request) (*portal.Response, error), keep *[]exchange) rung {
	return rung{name: name, s: s, run: func(st stmt) (float64, error) {
		req := c.NewRequest(st.text)
		var resp *portal.Response
		us, err := timeCall(func() (err error) {
			resp, err = serve(req)
			return err
		})
		if err != nil {
			return us, err
		}
		if resp.ErrMsg != "" {
			return us, errors.New(resp.ErrMsg)
		}
		if keep != nil {
			*keep = append(*keep, exchange{st.kind, req, resp})
		}
		return checked(st, us, nil, resp.Rows, resp.Affected)
	}}
}

// wireLadder climbs R0 to R3 and times the side calls, recording all of it
// in m. dbS gives the streams that feed the served database (over wc, then
// through Serve), coreS those that feed the core mirror; each rung asks
// for its own by number, so a read-only workload hands out independent
// streams (one shared stream that rotates query shapes would deal each
// rung a single shape) while a writing workload hands back the one model
// that follows its database. r3 runs a statement's storage equivalent on
// the mirror. walUS is the directly timed WAL append (0 for in-memory
// workloads).
func wireLadder(m *metrics, wc *wireClient, db *veridb.DB, cdb *core.DB, dbS, coreS func(rung int) stream, r3 func(st stmt) (float64, error), walUS float64, n int) error {
	const coreClient = "ladder"
	coreKey := []byte("benchmark-ladder-key")
	cdb.Enclave().ProvisionMACKey(coreClient, coreKey)
	var kept []exchange
	g := &wireGen{wc: wc}
	got, err := climb(n, []rung{
		{name: "r0", s: dbS(0), run: func(st stmt) (float64, error) {
			resp, lat, err := g.send(st, nil, 0)
			if err != nil {
				return 0, err
			}
			return checked(st, float64(lat.Nanoseconds())/1e3, nil, resp.Rows, resp.Affected)
		}},
		serveRung("r1", dbS(1), wc.c, db.Serve, &kept),
		serveRung("r1_core", coreS(2), client.New(coreClient, coreKey), cdb.Portal().Serve, nil),
		// The kernel's statement entry point, under the session the portal
		// would route to.
		{name: "r2", s: coreS(3), run: func(st stmt) (float64, error) {
			var res *portal.Result
			us, err := timeCall(func() (err error) {
				res, err = cdb.ExecuteSession(coreClient, st.text)
				return err
			})
			if err != nil {
				return us, err
			}
			return checked(st, us, nil, res.Rows, res.Affected)
		}},
		{name: "r3", s: coreS(4), run: r3},
	})
	if err != nil {
		return err
	}
	r0, r1, r2, r3us := got["r0"].mix(), got["r1"].mix(), got["r2"].mix(), got["r3"].mix()
	m.set("ladder.r0_us", r0)
	m.set("ladder.r1_us", r1)
	m.set("ladder.r1_core_us", got["r1_core"].mix())
	m.set("ladder.r2_us", r2)
	m.set("ladder.r3_us", r3us)

	// Side calls, each on the payloads R1 really exchanged.
	side := func(name string, f func(e exchange) error) (float64, error) {
		samples := kindSamples{}
		for _, e := range kept {
			us, err := timeCall(func() error { return f(e) })
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			samples[e.kind] = append(samples[e.kind], us)
		}
		m.set(name, samples.mix())
		return samples.mix(), nil
	}
	var buf []byte
	codec, err := side("wire.codec_us", func(e exchange) error {
		// Request out and in, response out and in: every codec call one
		// round trip makes on either side of the socket.
		buf = wire.AppendFrame(buf[:0], wire.TQuery, e.req.QID, wire.EncodeQuery(e.req))
		f, _, err := wire.DecodeFrame(buf, 0)
		if err != nil {
			return err
		}
		if _, err := wire.DecodeQuery(f.QID, f.Payload); err != nil {
			return err
		}
		buf = wire.AppendFrame(buf[:0], wire.TResult, e.resp.QID, wire.EncodeResult(e.resp))
		if f, _, err = wire.DecodeFrame(buf, responseLimit); err != nil {
			return err
		}
		_, err = wire.DecodeResult(f.QID, f.Payload)
		return err
	})
	if err != nil {
		return err
	}
	// A second client with the same key verifies the kept responses in
	// order: the first one's tracker has already seen their sequence
	// numbers and would call a second sighting a rollback.
	verifier := client.New(wc.c.ID, wc.key)
	signVerify, err := side("client.sign_verify_us", func(e exchange) error {
		verifier.NewRequest(e.req.Query)
		return verifier.VerifyResponse(e.req, e.resp)
	})
	if err != nil {
		return err
	}
	if _, err := side("portal.sign_us", func(e exchange) error {
		portal.SignRequestTimeout(wc.key, e.req.ClientID, e.req.QID, e.req.Query, 0)
		portal.SignResponse(wc.key, e.resp)
		return nil
	}); err != nil {
		return err
	}
	if _, err := side("sql.parse_us", func(e exchange) error {
		_, err := sql.Parse(e.req.Query)
		return err
	}); err != nil {
		return err
	}
	if _, err := side("sql.normalize_us", func(e exchange) error {
		_, err := sql.Normalize(e.req.Query)
		return err
	}); err != nil {
		return err
	}
	// The cache-miss cost: planning a fresh parse. UPDATE and DELETE plan
	// the SELECT their read phase runs (core plans `SELECT * FROM t WHERE
	// <where>` for them); INSERT plans nothing.
	planSamples := kindSamples{}
	for _, e := range kept {
		parsed, err := sql.Parse(e.req.Query)
		if err != nil {
			return err
		}
		var sel *sql.Select
		switch s := parsed.(type) {
		case *sql.Select:
			sel = s
		case *sql.Update:
			sel = whereSelect(s.Table, s.Where)
		case *sql.Delete:
			sel = whereSelect(s.Table, s.Where)
		default:
			planSamples[e.kind] = append(planSamples[e.kind], 0)
			continue
		}
		us, err := timeCall(func() error {
			_, err := cdb.Plan(sel)
			return err
		})
		if err != nil {
			return fmt.Errorf("plan %q: %w", e.req.Query, err)
		}
		planSamples[e.kind] = append(planSamples[e.kind], us)
	}
	m.set("plan.plan_us", planSamples.mix())

	m.set("server.self_us", r0-r1-codec-signVerify)
	m.set("portal.self_us", r1-r2)
	m.set("core.exec_self_us", r2-r3us-walUS)
	m.set("wal.append_fsync_us", walUS)
	return nil
}

func whereSelect(table string, where sql.Expr) *sql.Select {
	return &sql.Select{
		Items: []sql.SelectItem{{Star: true}},
		From:  []sql.TableRef{{Table: table, Alias: table}},
		Where: where,
		Limit: -1,
	}
}

// setLower records the rungs below storage — the vmem calls and PRF
// evaluations R3's operations make — and the self times down from R3.
func setLower(m *metrics, calls vmemCalls, p vmemPrims) {
	r3, r4, r5 := m.get("ladder.r3_us"), p.r4(calls), p.r5(calls)
	m.set("ladder.r4_us", r4)
	m.set("ladder.r5_us", r5)
	m.set("storage.self_us", r3-r4)
	m.set("vmem.self_us", r4-r5)
	m.set("sethash.prf_us", p.prfUS)
}

// measureStorage times the four direct Table calls of Fig. 9 on t, n
// calls each, and records them: Get, UpdateAt in place, InsertAt of fresh
// keys and DeleteAt of those keys. row(i) is an existing row; fresh(i) a
// row under an unused key. Building the row stays outside the timer, and so
// does the commit a write runs under (the commit clock is the kernel's
// cost, counted in R2).
func measureStorage(m *metrics, st *storage.Store, t storage.Engine, n int, row, fresh func(i int) record.Tuple) error {
	pk := t.PrimaryKeyColumn()
	for _, k := range []struct {
		name string
		arg  func(i int) record.Tuple
		call func(r record.Tuple, c *storage.Commit) error
	}{
		{"storage.get_us", row, func(r record.Tuple, _ *storage.Commit) error {
			_, ev, err := t.Get(r[pk])
			if err == nil && !ev.Found {
				err = fmt.Errorf("key %v not found", r[pk])
			}
			return err
		}},
		{"storage.update_us", row, func(r record.Tuple, c *storage.Commit) error { return t.UpdateAt(r[pk], r, c) }},
		{"storage.insert_us", fresh, func(r record.Tuple, c *storage.Commit) error { return t.InsertAt(r, c) }},
		{"storage.delete_us", fresh, func(r record.Tuple, c *storage.Commit) error { return t.DeleteAt(r[pk], c) }},
	} {
		us, err := medianOf(n, func(i int) (float64, error) {
			r := k.arg(i)
			c := st.BeginCommit()
			defer c.Done()
			return timeCall(func() error { return k.call(r, c) })
		})
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		m.set(k.name, us)
	}
	return nil
}

// recordCodecNS is the median time of record.Encode + record.Decode on
// the workload's rows, in nanoseconds.
func recordCodecNS(n int, row func(i int) record.Tuple) float64 {
	us, _ := medianOf(n, func(i int) (float64, error) {
		r := &record.Record{Data: row(i)}
		return timeCall(func() error {
			_, err := record.Decode(record.Encode(r))
			return err
		})
	})
	return us * 1e3
}
