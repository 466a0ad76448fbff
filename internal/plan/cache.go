package plan

// The plan cache: an LRU over statement shapes. A shape is the key
// sql.Shape gives a statement — its tokens with every number and string
// literal replaced by a type tag — and under it are filed instances: a
// parsed AST, what is compiled from it (an operator tree, a write's value
// expressions), and the AST's literal nodes in text order, the instance's
// bind slots. A hit checks an instance out, writes the arriving
// statement's literals into the slots and runs it; nothing is parsed,
// planned or compiled.
//
// That is sound on three conditions, which replace "same text":
//
//   - Same shape: statements with one key parse to ASTs that differ only
//     in the slots' values, slot for slot of one type (sql.ParseSlots).
//   - The plan reads literals through their nodes: a compiled expression
//     loads a literal's Val when evaluated, a range scan takes its bounds
//     — and the tighter of two on one side — from the nodes when it opens,
//     and text rendered from the AST (a computed column's header, an
//     error) is rendered at use. Where the planner does decide from a
//     literal's value, the instance is not filed (Rebindable).
//   - Exclusive checkout: an instance is in one statement's hands from
//     Get to Put, so the slot writes, the owner names qualifyRefs writes
//     into the AST and the row state operators carry across Open/Close
//     race with nothing. A shape keeps up to instancesPerShape idle
//     instances, so that many concurrent statements of it all hit; one
//     more misses, compiles its own and files it if there is room.
//
// Validity is keyed on the storage catalog version alone: any CREATE/DROP
// TABLE or shard-layout change advances it, and Get discards a shape
// planned under an older one. Nothing else is bound into an instance: an
// EXECUTE reaches the cache as its template's tokens with the arguments in
// place, under the key of that statement.

import (
	"container/list"
	"sync"

	"veridb/internal/engine"
	"veridb/internal/govern"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/storage"
)

// instancesPerShape bounds the idle instances kept under one shape: the
// number of concurrent statements of that shape that can all hit.
const instancesPerShape = 4

// Instance is one compiled copy of a statement, owned by one execution at
// a time.
type Instance struct {
	// Stmt is the statement to run: the parsed AST.
	Stmt sql.Statement
	// Op is the compiled operator tree of a SELECT, or the whole-row read
	// phase of an UPDATE or DELETE; nil otherwise.
	Op engine.Operator
	// Table is the table a write changes, nil otherwise; Set is an
	// UPDATE's SET list and Values an INSERT's value rows, compiled.
	Table  storage.Engine
	Set    []Assign
	Values [][]Assign
	// Slots are the literal nodes lifted out of the shape key, in text
	// order; Bind writes a statement's literals into them.
	Slots []*sql.Literal
	// Rebindable reports that the instance serves every statement of its
	// shape; Put files no other kind.
	Rebindable bool

	// Exec, Res, Batch and Columns are the per-statement state of an Op,
	// kept on the instance so that an execution of a checked-out one
	// allocates none of it: the statement controls, the reservation they
	// charge, the drain batch (engine.DrainThrough) and a SELECT's output
	// column names when they are fixed (engine.Names). Between executions
	// they hold no row, context or snapshot. Columns reaches every result
	// of the instance and is never written.
	Exec    engine.Exec
	Res     *govern.Reservation
	Batch   *engine.RowBatch
	Columns []string
}

// Assign is one compiled column value of a write: Expr's value goes into
// column Col of the row written.
type Assign struct {
	Col  int
	Expr *engine.Compiled
}

// Bind points the instance at one statement's literals: sql.Shape's, for
// a statement of the instance's shape, which lifts one per slot.
func (in *Instance) Bind(lits []record.Value) {
	for i, v := range lits {
		in.Slots[i].Val = v
	}
}

// shape is one cache entry: the idle instances of one key.
type shape struct {
	key     string
	version uint64
	idle    []*Instance
}

// CacheStats counts cache traffic. Every Get is one hit or one miss.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
}

// Cache is a bounded LRU of statement shapes. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // of *shape
	lru     *list.List               // front = most recent
	stats   CacheStats
}

// NewCache builds a cache bounded to cap shapes; cap < 1 returns nil
// (caching disabled — a nil *Cache is safe to call).
func NewCache(cap int) *Cache {
	if cap < 1 {
		return nil
	}
	return &Cache{cap: cap, entries: make(map[string]*list.Element), lru: list.New()}
}

// Get checks an idle instance of the shape out, or returns nil on a miss:
// no such shape, none of its instances idle, or a shape planned under
// another catalog version, which is discarded (invalidation). The caller
// owns a returned instance exclusively until it Puts it back.
func (c *Cache) Get(key string, version uint64) *Instance {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok && el.Value.(*shape).version != version {
		c.stats.Invalidations++
		c.remove(el)
		ok = false
	}
	if ok {
		if sh := el.Value.(*shape); len(sh.idle) > 0 {
			in := sh.idle[len(sh.idle)-1]
			sh.idle = sh.idle[:len(sh.idle)-1]
			c.lru.MoveToFront(el)
			c.stats.Hits++
			return in
		}
	}
	c.stats.Misses++
	return nil
}

// Put files an instance under key as idle: one checked out by Get, or one
// freshly compiled under the catalog version given. It is dropped instead
// when it is not rebindable, when the shape already holds
// instancesPerShape idle ones, or when the shape has since been planned
// under a newer version; a shape it opens may push the least recently used
// one out.
func (c *Cache) Put(key string, version uint64, in *Instance) {
	if c == nil || !in.Rebindable {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok && el.Value.(*shape).version < version {
		c.remove(el)
		ok = false
	}
	if !ok {
		el = c.lru.PushFront(&shape{key: key, version: version})
		c.entries[key] = el
		if c.lru.Len() > c.cap {
			c.remove(c.lru.Back())
		}
	}
	if sh := el.Value.(*shape); sh.version == version && len(sh.idle) < instancesPerShape {
		sh.idle = append(sh.idle, in)
	}
}

func (c *Cache) remove(el *list.Element) {
	delete(c.entries, el.Value.(*shape).key)
	c.lru.Remove(el)
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}
