// Package storage implements VeriDB's page-structured verifiable storage
// layer (paper §4): relational tables stored as ⟨key, nKey, data⟩ records
// in write-read consistent memory, with one key chain per access-method
// column (Definitions 4.2 and 5.2), untrusted B-tree indexes for location
// lookup, and verified access methods (§5.2) whose results carry
// single-record presence/absence evidence.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"veridb/internal/govern"
	"veridb/internal/record"
	"veridb/internal/vmem"
)

// Errors surfaced by the storage layer.
var (
	ErrDuplicateKey = errors.New("storage: duplicate primary key")
	ErrNotFound     = errors.New("storage: no such row")
	ErrNoSuchTable  = errors.New("storage: no such table")
	ErrTableExists  = errors.New("storage: table already exists")
	// ErrVerifyFailed means an access method's ⟨key, nKey⟩ conditions did
	// not hold: the untrusted index returned a location whose record does
	// not prove the requested presence/absence (§5.2).
	ErrVerifyFailed = errors.New("storage: access-method verification failed")
)

// TableSpec describes a table to create.
type TableSpec struct {
	Name   string
	Schema *record.Schema
	// PrimaryKey is the primary-key column index; it always has a chain.
	PrimaryKey int
	// ChainColumns lists additional column indexes that get ⟨key, nKey⟩
	// chains (the columns usable as verified search/range keys, §5.3).
	ChainColumns []int
	// Shards is the hash-shard count; 0 falls back to the store default and
	// 1 (the overall default) reproduces the unsharded layout bit-for-bit.
	Shards int
}

// Store owns the verifiable storage for a set of tables over one
// write-read consistent memory.
type Store struct {
	mem *vmem.Memory

	mu            sync.RWMutex
	tables        map[string]*Table
	defaultShards int
	// version counts catalog and layout changes (table create/drop,
	// default-shard change); plan caches key their validity on it.
	version atomic.Uint64

	// clock issues commit timestamps and tracks the watermark/floor for
	// snapshot reads (see mvcc.go).
	clock *commitClock

	// budget, when set, is charged for retired MVCC version images (they
	// live in trusted heap until reclaimed) so version-chain growth is
	// visible to the process memory governor. Atomic pointer: SetBudget may
	// race with concurrent commits.
	budget atomic.Pointer[govern.Budget]
}

// CatalogVersion returns a counter that advances on every catalog or
// shard-layout change. A compiled plan is valid only while the version it
// was planned under is current.
func (s *Store) CatalogVersion() uint64 { return s.version.Load() }

// NewStore builds a store over mem.
func NewStore(mem *vmem.Memory) *Store {
	return &Store{mem: mem, tables: make(map[string]*Table), defaultShards: 1, clock: &commitClock{}}
}

// SetDefaultShards sets the shard count used when a TableSpec leaves Shards
// at zero (the TableShards configuration knob). n < 1 is treated as 1.
func (s *Store) SetDefaultShards(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.defaultShards = n
	s.mu.Unlock()
	s.version.Add(1)
}

// Memory exposes the underlying write-read consistent memory (for
// verification control and stats).
func (s *Store) Memory() *vmem.Memory { return s.mem }

// CreateTable creates a table with its chain sentinels.
func (s *Store) CreateTable(spec TableSpec) (*Table, error) {
	if spec.Schema == nil || spec.Schema.Len() == 0 {
		return nil, fmt.Errorf("storage: table %q needs columns", spec.Name)
	}
	if spec.PrimaryKey < 0 || spec.PrimaryKey >= spec.Schema.Len() {
		return nil, fmt.Errorf("storage: table %q primary key column %d out of range", spec.Name, spec.PrimaryKey)
	}
	chainCols := []int{spec.PrimaryKey}
	seen := map[int]bool{spec.PrimaryKey: true}
	for _, c := range spec.ChainColumns {
		if c < 0 || c >= spec.Schema.Len() {
			return nil, fmt.Errorf("storage: table %q chain column %d out of range", spec.Name, c)
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		chainCols = append(chainCols, c)
	}
	sort.Ints(chainCols[1:])

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[spec.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, spec.Name)
	}
	shards := spec.Shards
	if shards == 0 {
		shards = s.defaultShards
	}
	if shards < 1 {
		return nil, fmt.Errorf("storage: table %q shard count %d must be ≥ 1", spec.Name, shards)
	}
	t, err := newTable(s, spec.Name, spec.Schema, chainCols, shards)
	if err != nil {
		return nil, err
	}
	// Stamp the creation as a commit so snapshots pinned before it will
	// refuse to scan the table (their catalog predates it).
	c := s.BeginCommit()
	t.born = c.Seq()
	c.Done()
	s.tables[spec.Name] = t
	s.version.Add(1)
	return t, nil
}

// Table looks a table up by name.
func (s *Store) Table(name string) (Engine, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// PageIDs lists the vmem pages the named table's shards own.
func (s *Store) PageIDs(table string) ([]uint64, error) {
	s.mu.RLock()
	t, ok := s.tables[table]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	var ids []uint64
	for _, sh := range t.shards {
		sh.mu.RLock()
		ids = append(ids, sh.pages...)
		sh.mu.RUnlock()
	}
	return ids, nil
}

// DropTable removes a table and frees the pages of every shard.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	t, ok := s.tables[name]
	if ok {
		delete(s.tables, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	s.version.Add(1)
	bud := s.budget.Load()
	for _, sh := range t.shards {
		sh.mu.Lock()
		// The dropped table's retired versions go with it; return their
		// budget charge so the governor doesn't count freed heap.
		for i := range sh.mv.hist {
			for _, vs := range sh.mv.hist[i] {
				for _, v := range vs {
					bud.Release(versionBytes(v.rec))
				}
			}
		}
		for _, pid := range sh.pages {
			if err := s.mem.FreePage(pid); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// TableNames lists tables in lexical order.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
