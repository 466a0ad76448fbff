package wal

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// keyFile holds the log's MAC key, standing in for SGX sealing: a real
// deployment seals the key to the enclave identity so only the attested
// code can produce or check these MACs. Tampering with the key file makes
// every MAC check fail, which lands in quarantine like any other tamper.
const keyFile = "sealed.key"

// keySize is the sealed MAC key length.
const keySize = 32

// walChunk is the step the WAL file's length grows by. A commit group is
// written in place below the file's length, so the fsync that acks it
// flushes data only; the length changes, zero-filled and sparse, once per
// walChunk of log (about 7 000 commits of 150 bytes). Recovery reads the
// zero tail as the log's clean end, and Close trims it off.
const walChunk = 1 << 20

// Recovery is what Open found on disk, verified and ready to replay:
// the newest admissible checkpoint's table images (nil when none) and
// the authenticated WAL tail recorded after it.
type Recovery struct {
	// CheckpointID is the admitted checkpoint (0 = none: replaying from
	// the genesis WAL).
	CheckpointID uint64
	// Checkpoint holds the admitted checkpoint's tables, nil when none.
	Checkpoint []*TableImage
	// Tail is the verified WAL record suffix to replay over the
	// checkpoint, in sequence order.
	Tail []Record
	// TornBytes counts trailing non-zero WAL bytes dropped as a
	// crash-torn suffix (diagnostic; at most one unacked group plus
	// fragments). A zero tail is the log's clean end, not torn bytes.
	TornBytes int64
}

// Log is an open authenticated WAL: a write handle whose next group lands
// after the last verified record, holding the chain state (previous MAC,
// next sequence number) and the checkpoint naming state.
type Log struct {
	dir string
	key []byte

	mu      sync.Mutex
	f       *os.File
	path    string
	ckptID  uint64
	prevMAC [macSize]byte
	nextSeq uint64
	// logged counts the record bytes in the current generation's WAL;
	// image is the byte size of its checkpoint segments (0 before the
	// first checkpoint). Together they are what the caller's checkpoint
	// rule weighs: replaying the log against reloading the image.
	logged, image int64
	// end is where the next drained group lands; size is the file's
	// length, a multiple of walChunk once the first group is written.
	end, size int64

	// Commit-group state (see group.go).
	open     *group          // the group taking records; nil when none is
	last     <-chan struct{} // done of the last drained group; nil before the first
	failed   error           // sticky write/fsync failure; fences Enqueue
	syncHook func(*os.File) error
}

func walPath(dir string, ckptID uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", ckptID))
}

func manifestPath(dir string, ckptID uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x.manifest", ckptID))
}

func segmentPath(dir string, ckptID uint64, table string) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x-%s.seg", ckptID, table))
}

// syncDir flushes directory entries (file creations, renames, deletes) so
// the checkpoint protocol's write ordering holds across power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some filesystems reject fsync on directories; the ordering guarantee
	// degrades gracefully there, and every content byte is still covered
	// by MACs.
	_ = d.Sync()
	return d.Close()
}

// Open opens (or initialises) a data directory and performs the
// verification half of recovery: choose the newest admissible checkpoint,
// authenticate its segments, and authenticate the WAL tail. It returns
// the append-ready log and the recovery image for the caller to replay.
//
// Errors wrapping ErrTamper mean the durable state was modified by
// something other than a crash; the caller must quarantine, not retry.
// Other errors are environmental (I/O, permissions).
func Open(dir string) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating data dir: %w", err)
	}
	manifests, err := listManifestIDs(dir)
	if err != nil {
		return nil, nil, err
	}
	key, freshKey, err := loadOrCreateKey(dir, len(manifests) > 0)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{dir: dir, key: key}
	rec := &Recovery{}

	// Choose the newest admissible checkpoint. A torn manifest is the
	// crash artifact the write ordering allows for the newest checkpoint
	// only; its predecessor's files still exist (they are deleted only
	// after the new WAL file is created), so fall back once. A tampered
	// manifest anywhere quarantines.
	var manifest *Manifest
	for i := len(manifests) - 1; i >= 0; i-- {
		id := manifests[i]
		buf, err := os.ReadFile(manifestPath(dir, id))
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reading manifest %d: %w", id, err)
		}
		m, err := decodeManifest(buf, key)
		if errors.Is(err, ErrTorn) {
			if i == len(manifests)-1 {
				continue // crash mid-manifest-write; previous checkpoint rules
			}
			return nil, nil, fmt.Errorf("%w: non-newest manifest %d torn: %v", ErrTamper, id, err)
		}
		if err != nil {
			return nil, nil, err
		}
		if m.CheckpointID != id {
			return nil, nil, fmt.Errorf("%w: manifest file %d carries checkpoint ID %d", ErrTamper, id, m.CheckpointID)
		}
		manifest = m
		break
	}

	baseSeq := uint64(0)
	if manifest != nil {
		rec.CheckpointID = manifest.CheckpointID
		baseSeq = manifest.BaseSeq
		for _, e := range manifest.Segments {
			img, err := loadSegment(dir, manifest.CheckpointID, e, key)
			if err != nil {
				return nil, nil, err
			}
			rec.Checkpoint = append(rec.Checkpoint, img)
			l.image += int64(e.Size)
		}
	}

	// Open the checkpoint's WAL. Absence is a crash artifact only while
	// the predecessor generation still exists (rotation deletes old files
	// strictly after creating the new WAL); with the old generation gone,
	// a missing WAL is a deleted log — tampering.
	l.ckptID = rec.CheckpointID
	l.path = walPath(dir, l.ckptID)
	walBuf, err := os.ReadFile(l.path)
	switch {
	case err == nil:
		end, err := l.verifyTail(walBuf, baseSeq, rec)
		if err != nil {
			return nil, nil, err
		}
		if end < int64(len(walBuf)) {
			// Drop the torn suffix and the zero tail so new groups chain
			// off the last good record at a clean boundary; the writer
			// re-extends the file from there.
			if err := os.Truncate(l.path, end); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
	case os.IsNotExist(err):
		older := rec.CheckpointID == 0 && manifest == nil && freshKey
		if !older {
			older = rec.CheckpointID > 0 && generationExists(dir, manifests, rec.CheckpointID)
		}
		if !older {
			return nil, nil, fmt.Errorf("%w: WAL %s missing with no prior generation present", ErrTamper, filepath.Base(l.path))
		}
		if err := l.createWAL(baseSeq); err != nil {
			return nil, nil, err
		}
		l.nextSeq = baseSeq
	default:
		return nil, nil, fmt.Errorf("wal: reading %s: %w", l.path, err)
	}

	if err := l.openWriter(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// openWriter opens the write handle on l.path, whose length is its logical
// end: walHeaderSize plus the record bytes l.logged counts.
func (l *Log) openWriter() error {
	f, err := os.OpenFile(l.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening %s for writing: %w", filepath.Base(l.path), err)
	}
	l.f = f
	l.end = walHeaderSize + l.logged
	l.size = l.end
	return nil
}

// loadOrCreateKey reads the sealed key, creating one when the directory is
// genuinely fresh. A missing key beside existing checkpoints means the
// sealed state was destroyed — quarantine.
func loadOrCreateKey(dir string, haveManifests bool) (key []byte, fresh bool, err error) {
	path := filepath.Join(dir, keyFile)
	key, err = os.ReadFile(path)
	if err == nil {
		if len(key) != keySize {
			return nil, false, fmt.Errorf("%w: sealed key is %d bytes, want %d", ErrTamper, len(key), keySize)
		}
		return key, false, nil
	}
	if !os.IsNotExist(err) {
		return nil, false, fmt.Errorf("wal: reading sealed key: %w", err)
	}
	if haveManifests {
		return nil, false, fmt.Errorf("%w: checkpoints present but sealed key missing", ErrTamper)
	}
	key = make([]byte, keySize)
	if _, err := rand.Read(key); err != nil {
		return nil, false, fmt.Errorf("wal: generating sealed key: %w", err)
	}
	if err := writeFileSync(path, key); err != nil {
		return nil, false, err
	}
	if err := syncDir(dir); err != nil {
		return nil, false, err
	}
	return key, true, nil
}

// verifyTail authenticates a WAL image: header, then the record chain up
// to the end of its non-zero bytes. It appends verified records to
// rec.Tail, counts the non-zero bytes dropped as crash-torn in
// rec.TornBytes, and returns the offset just past the last good record —
// the log's logical end.
func (l *Log) verifyTail(buf []byte, wantBase uint64, rec *Recovery) (end int64, err error) {
	ckptID, baseSeq, genesis, err := decodeWALHeader(buf, l.key)
	if errors.Is(err, ErrTorn) {
		// The header is written and synced before any record is acked, so
		// a short header means the crash hit initialisation: rebuild the
		// file. (Content after a torn header is impossible by that
		// ordering, so any such bytes die with the rebuild.)
		if err := l.createWAL(wantBase); err != nil {
			return 0, err
		}
		l.nextSeq = wantBase
		return walHeaderSize, nil
	}
	if err != nil {
		return 0, err
	}
	if ckptID != l.ckptID || baseSeq != wantBase {
		return 0, fmt.Errorf("%w: WAL header (ckpt %d, base %d) does not match checkpoint (ckpt %d, base %d)",
			ErrTamper, ckptID, baseSeq, l.ckptID, wantBase)
	}
	l.prevMAC = genesis
	l.nextSeq = baseSeq
	off := walHeaderSize
	// At a record boundary, an all-zero remainder is the clean end of the
	// log: the zero tail of its last length step.
	nonZero := nonZeroLen(buf)
	for off < nonZero {
		r, mac, n, err := decodeRecord(buf[off:], nonZero-off, l.key, l.prevMAC, l.nextSeq)
		if errors.Is(err, ErrTorn) {
			rec.TornBytes = int64(nonZero - off)
			return int64(off), nil
		}
		if err != nil {
			return 0, fmt.Errorf("%s at byte %d: %w", filepath.Base(l.path), off, err)
		}
		rec.Tail = append(rec.Tail, r)
		l.prevMAC = mac
		l.nextSeq = r.Seq + 1
		off += n
		l.logged += int64(n)
	}
	return int64(off), nil
}

// createWAL writes a fresh WAL file for the log's current checkpoint and
// installs its header MAC as the chain genesis.
func (l *Log) createWAL(baseSeq uint64) error {
	hdr := encodeWALHeader(l.key, l.ckptID, baseSeq)
	if err := writeFileSync(l.path, hdr); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.prevMAC = headerMAC(l.key, l.ckptID, baseSeq)
	return nil
}

// loadSegment reads, authenticates and decodes one checkpoint segment.
func loadSegment(dir string, ckptID uint64, e SegmentEntry, key []byte) (*TableImage, error) {
	path := segmentPath(dir, ckptID, e.Table)
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		// Segments are written and synced before their manifest; a missing
		// segment under a valid manifest was deleted afterwards.
		return nil, fmt.Errorf("%w: segment %s missing", ErrTamper, filepath.Base(path))
	}
	if err != nil {
		return nil, fmt.Errorf("wal: reading segment: %w", err)
	}
	if uint64(len(buf)) != e.Size {
		return nil, fmt.Errorf("%w: segment %s is %d bytes, manifest says %d", ErrTamper, filepath.Base(path), len(buf), e.Size)
	}
	mac := segMAC(key, buf)
	if mac != e.MAC {
		return nil, fmt.Errorf("%w: segment %s MAC mismatch", ErrTamper, filepath.Base(path))
	}
	return decodeSegment(buf, ckptID, e.Table)
}

// generationExists reports whether any file of checkpoint generation
// ckptID-1 (manifest or WAL) is still on disk.
func generationExists(dir string, manifests []uint64, ckptID uint64) bool {
	prev := ckptID - 1
	for _, id := range manifests {
		if id == prev {
			return true
		}
	}
	_, err := os.Stat(walPath(dir, prev))
	return err == nil
}

// listManifestIDs returns every ckpt-*.manifest ID in ascending order.
func listManifestIDs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing data dir: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".manifest") {
			continue
		}
		hexID := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".manifest")
		id, err := strconv.ParseUint(hexID, 16, 64)
		if err != nil {
			continue // foreign file; recovery keys off parseable names only
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// NextSeq returns the sequence number the next Append will use.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Path returns the current WAL file path (crash harnesses cut the log
// here).
func (l *Log) Path() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.path
}

// Sizes returns the record bytes logged since the current checkpoint
// generation began and the byte size of that generation's segments.
func (l *Log) Sizes() (logged, image int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.logged, l.image
}

// CheckpointID returns the current checkpoint generation (0 = none yet).
func (l *Log) CheckpointID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptID
}

// Checkpoint freezes the given verified table images into a new
// checkpoint generation and rotates the WAL. The caller must guarantee
// the images are a consistent snapshot (no concurrent DML; core holds
// its statement gate exclusively). Write ordering, on which every
// recovery fallback rule rests:
//
//  1. write + fsync every segment, fsync the directory;
//  2. write + fsync the manifest (the commit point), fsync the directory;
//  3. create + fsync the new WAL file, fsync the directory;
//  4. delete the previous generation's WAL, manifest and segments.
//
// A crash before 2 leaves orphan segments the next generation overwrites;
// a crash between 2 and 3 recovers to the new checkpoint with an empty
// tail (the old WAL's records are all captured by the segments); a crash
// during 4 leaves harmless old files that the fallback scan ignores.
func (l *Log) Checkpoint(tables []*TableImage) error {
	// Settle any pending group before the rotation swaps the file handle.
	// Under core's exclusive statement gate no group can be in flight here;
	// this covers direct wal-level callers.
	l.drainPending()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	newID := l.ckptID + 1
	m := &Manifest{CheckpointID: newID, BaseSeq: l.nextSeq}
	var image int64
	for _, img := range tables {
		buf, err := encodeSegment(img, newID)
		if err != nil {
			return err
		}
		if err := writeFileSync(segmentPath(l.dir, newID, img.Name), buf); err != nil {
			return err
		}
		m.Segments = append(m.Segments, SegmentEntry{
			Table: img.Name,
			Size:  uint64(len(buf)),
			MAC:   segMAC(l.key, buf),
		})
		image += int64(len(buf))
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if err := writeFileSync(manifestPath(l.dir, newID), encodeManifest(m, l.key)); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// The new checkpoint is committed; swing the log over to its WAL.
	oldID, oldTables := l.ckptID, tableNames(tables)
	l.ckptID = newID
	l.path = walPath(l.dir, newID)
	if err := l.createWAL(l.nextSeq); err != nil {
		return err
	}
	old := l.f
	l.logged, l.image = 0, image
	if err := l.openWriter(); err != nil {
		return err
	}
	old.Close()

	// Retire the previous generation. Failures here are cosmetic (extra
	// files), never a durability loss.
	os.Remove(walPath(l.dir, oldID))
	os.Remove(manifestPath(l.dir, oldID))
	for _, name := range oldTables {
		os.Remove(segmentPath(l.dir, oldID, name))
	}
	// Also sweep segments of tables that existed at the previous
	// checkpoint but were since dropped.
	if entries, err := os.ReadDir(l.dir); err == nil {
		prefix := fmt.Sprintf("ckpt-%016x-", oldID)
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), prefix) && strings.HasSuffix(e.Name(), ".seg") {
				os.Remove(filepath.Join(l.dir, e.Name()))
			}
		}
	}
	_ = syncDir(l.dir)
	return nil
}

func tableNames(tables []*TableImage) []string {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.Name
	}
	return names
}

// Close flushes any pending group, trims the file's zero tail back to the
// log's end, syncs and closes the write handle. A cleanly closed log is
// its records and nothing else.
func (l *Log) Close() error {
	l.drainPending()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Truncate(l.end)
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Boundaries scans a WAL image structurally — length prefixes only, no
// MAC verification — and returns the byte offset of every record
// boundary, starting at the end of the header. It stops at the first
// length field that is out of range or overruns the image, a zero one
// included, so on a live log it stops at the zero tail of the file's
// length step and its last offset is the log's logical end. Crash
// harnesses use it to derive cut points: one write lands a whole commit
// group, so the log's end observed at ack time need not move by
// one-record increments, and the file's length moves in walChunk steps.
func Boundaries(buf []byte) []int64 {
	if len(buf) < walHeaderSize {
		return nil
	}
	off := walHeaderSize
	offs := []int64{int64(off)}
	for off+4 <= len(buf) {
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n < minRecordLen || n > MaxRecordLen || off+4+n > len(buf) {
			break
		}
		off += 4 + n
		offs = append(offs, int64(off))
	}
	return offs
}

// writeFileSync writes path atomically enough for the protocol: content,
// then fsync, before the handle closes.
func writeFileSync(path string, content []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(content); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}
