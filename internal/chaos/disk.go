package chaos

// Disk faults: the durable-storage counterparts of the memory injector.
// The WAL and checkpoint files live on an untrusted disk (paper §2: the
// platform outside the enclave is adversarial, and that includes
// persistence), so the crash harness needs the same two fault families
// the memory side has — crash-shaped damage (torn tails, zero tails of a
// file whose length ran ahead of its writes, partial fsync visibility)
// that recovery must absorb by restoring the committed prefix, and
// tamper-shaped damage (bit flips, splices, deletions) that recovery must
// answer with quarantine. All injectors are deterministic:
// they take explicit offsets, or derive them from the target size, so a
// crash-matrix run replays identically.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// TruncateAt cuts a file to size bytes: the canonical crash fault — a
// torn tail at a record boundary, or mid-record when size lands inside
// one. Truncating to the current size is a no-op crash (clean shutdown).
func TruncateAt(path string, size int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if size < 0 || size > fi.Size() {
		return fmt.Errorf("chaos: truncate %s to %d bytes (have %d)", filepath.Base(path), size, fi.Size())
	}
	return os.Truncate(path, size)
}

// TornWriteAt models a partial-fsync crash: everything from off is cut,
// then half of what was there comes back garbled — the sector that made
// it out of the drive cache XORed with a stuck pattern. Unlike a clean
// truncation this leaves structurally-present-but-wrong bytes at the
// tail, exercising the MAC half of the torn-tail classifier rather than
// the length half.
func TornWriteAt(path string, off int64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if off < 0 || off > int64(len(buf)) {
		return fmt.Errorf("chaos: tear %s at %d (have %d bytes)", filepath.Base(path), off, len(buf))
	}
	tail := buf[off:]
	keep := len(tail) / 2
	torn := append([]byte(nil), buf[:off]...)
	for i := 0; i < keep; i++ {
		torn = append(torn, tail[i]^0x55)
	}
	return os.WriteFile(path, torn, 0o644)
}

// ZeroFrom models a crash in a log whose file length was set ahead of
// its records: every byte from off to the end reads back as zero and the
// length is kept — the writes past off never reached the disk, while the
// length step that made room for them did. Recovery must read the zero
// tail as the log's clean end.
func ZeroFrom(path string, off int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if off < 0 || off > fi.Size() {
		return fmt.Errorf("chaos: zero %s from %d (have %d bytes)", filepath.Base(path), off, fi.Size())
	}
	// Cutting and re-extending leaves a hole, which reads as zero.
	if err := os.Truncate(path, off); err != nil {
		return err
	}
	return os.Truncate(path, fi.Size())
}

// TornZeroAt is TornWriteAt inside a fixed-length file: of the bytes from
// off to the last non-zero byte, the first half comes back garbled and
// everything after it reads as zero; the length is kept.
func TornZeroAt(path string, off int64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if off < 0 || off > int64(len(buf)) {
		return fmt.Errorf("chaos: tear %s at %d (have %d bytes)", filepath.Base(path), off, len(buf))
	}
	end := int64(len(buf))
	for end > off && buf[end-1] == 0 {
		end--
	}
	torn := buf[off : off+(end-off)/2]
	for i := range torn {
		torn[i] ^= 0x55
	}
	clear(buf[off+int64(len(torn)):])
	return os.WriteFile(path, buf, 0o644)
}

// FlipBit flips one bit at byteOff: the adversarial in-place edit. In
// the middle of a WAL, a segment or a manifest this must land in
// quarantine, never in silent acceptance or truncation.
func FlipBit(path string, byteOff int64, bit uint) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], byteOff); err != nil {
		return fmt.Errorf("chaos: flip in %s at %d: %w", filepath.Base(path), byteOff, err)
	}
	b[0] ^= 1 << (bit % 8)
	if _, err := f.WriteAt(b[:], byteOff); err != nil {
		return err
	}
	return f.Sync()
}

// CopyDir clones a data directory (flat: the WAL layout has no
// subdirectories) so a crash matrix can damage a copy per injection
// point while the pristine original keeps serving as the oracle input.
func CopyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			return fmt.Errorf("chaos: %s contains unexpected directory %s", src, e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// FailingSync builds an fsync fault for the WAL's sync hook: the
// returned hook performs the first `after` syncs for real, then fails
// every later one with err — the drive "went away" mid-run. Once
// failing it never recovers, matching a real device error: the log
// layer must fence itself rather than retry into the void.
func FailingSync(after int64, err error) func(*os.File) error {
	var n atomic.Int64
	return func(f *os.File) error {
		if n.Add(1) <= after {
			return f.Sync()
		}
		return err
	}
}
