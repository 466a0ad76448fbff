// Package govern implements the overload-protection primitives shared by
// the server stack: a process-wide memory budget charged by the execution
// engine, the portal's replay windows, and MVCC version chains; and an
// admission gate that sheds load with typed, retryable refusals once every
// execution slot is taken.
//
// The budget is advisory bookkeeping, not an allocator: callers estimate
// bytes (see internal/record's TupleBytes) and charge/release around the
// allocations they already make. Two charging disciplines coexist:
//
//   - Reserve/Release (via Reservation): statement-scoped, failing. A
//     statement that would push usage past the limit gets a typed
//     ErrResourceExhausted before the allocation happens, and everything it
//     reserved is returned when the statement finishes.
//   - Charge/Release: unconditional, for long-lived structures (MVCC version
//     chains, responses kept for replay) whose growth cannot fail a committed
//     write retroactively. These elevate Used so that *future* reservations
//     observe them and fail.
package govern

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrResourceExhausted is the sentinel wrapped by every budget refusal.
// Callers match it with errors.Is.
var ErrResourceExhausted = errors.New("govern: memory budget exhausted")

// ResourceExhaustedError carries the sizing context of a refused
// reservation. It unwraps to ErrResourceExhausted.
type ResourceExhaustedError struct {
	Requested int64 // bytes the caller asked for
	Used      int64 // bytes tracked at refusal time
	Limit     int64 // configured budget
}

func (e *ResourceExhaustedError) Error() string {
	return fmt.Sprintf("govern: memory budget exhausted (requested %d bytes, %d of %d in use)",
		e.Requested, e.Used, e.Limit)
}

func (e *ResourceExhaustedError) Unwrap() error { return ErrResourceExhausted }

// Budget tracks estimated memory use against a fixed limit. A nil *Budget
// is valid and tracks nothing: every method is a cheap no-op, so call sites
// never need nil guards. Limit <= 0 means "track but never refuse".
type Budget struct {
	limit     int64
	used      atomic.Int64
	highWater atomic.Int64
	denied    atomic.Int64
}

// NewBudget returns a tracker refusing reservations past limit bytes.
// limit <= 0 disables refusal but still tracks usage.
func NewBudget(limit int64) *Budget {
	return &Budget{limit: limit}
}

// Reserve attempts to claim n bytes, failing with *ResourceExhaustedError
// if the claim would exceed the limit. n <= 0 always succeeds.
func (b *Budget) Reserve(n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	for {
		cur := b.used.Load()
		next := cur + n
		if b.limit > 0 && next > b.limit {
			b.denied.Add(1)
			return &ResourceExhaustedError{Requested: n, Used: cur, Limit: b.limit}
		}
		if b.used.CompareAndSwap(cur, next) {
			b.bumpHighWater(next)
			return nil
		}
	}
}

// Charge claims n bytes unconditionally. Used for growth that cannot fail
// (a committed write's new MVCC version, a response kept for replay): the
// overshoot is visible to subsequent Reserve calls, which is how pressure
// propagates to shed-eligible work.
func (b *Budget) Charge(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.bumpHighWater(b.used.Add(n))
}

// Release returns n bytes to the budget. Releasing more than was charged
// clamps at zero rather than going negative (the estimates are inexact by
// design; a clamp keeps one bad estimate from poisoning the counter).
func (b *Budget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	if v := b.used.Add(-n); v < 0 {
		// Rare by construction; restore the deficit so Used stays >= 0.
		b.used.Add(-v)
	}
}

// Used reports the bytes currently tracked.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Limit reports the configured budget (0 if tracking-only or nil).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// HighWater reports the maximum bytes ever tracked.
func (b *Budget) HighWater() int64 {
	if b == nil {
		return 0
	}
	return b.highWater.Load()
}

// Denied reports how many reservations were refused.
func (b *Budget) Denied() int64 {
	if b == nil {
		return 0
	}
	return b.denied.Load()
}

func (b *Budget) bumpHighWater(v int64) {
	for {
		hw := b.highWater.Load()
		if v <= hw || b.highWater.CompareAndSwap(hw, v) {
			return
		}
	}
}

// Reservation accumulates statement-scoped budget claims so one Release
// at statement end returns everything, even when the statement died
// mid-operator. A nil *Reservation is valid and tracks nothing.
type Reservation struct {
	b    *Budget
	held atomic.Int64
}

// NewReservation opens a statement-scoped accumulator against b (which may
// be nil).
func NewReservation(b *Budget) *Reservation {
	return &Reservation{b: b}
}

// Grow reserves n more bytes for the statement.
func (r *Reservation) Grow(n int64) error {
	if r == nil || r.b == nil || n <= 0 {
		return nil
	}
	if err := r.b.Reserve(n); err != nil {
		return err
	}
	r.held.Add(n)
	return nil
}

// Held reports the bytes this reservation currently holds.
func (r *Reservation) Held() int64 {
	if r == nil {
		return 0
	}
	return r.held.Load()
}

// Release returns every byte held. Safe to call more than once.
func (r *Reservation) Release() {
	if r == nil || r.b == nil {
		return
	}
	if n := r.held.Swap(0); n > 0 {
		r.b.Release(n)
	}
}
