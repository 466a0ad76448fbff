package govern

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrOverloaded is the sentinel wrapped by every load-shedding refusal.
// Callers match it with errors.Is.
var ErrOverloaded = errors.New("govern: server overloaded")

// overloadedMarker is the machine-parseable tail appended to every
// OverloadedError message. It survives the trip through the portal's
// string-typed error field, so the wire client can recover the typed
// error (and its RetryAfter hint) with ParseOverloaded.
const overloadedMarker = "retry-after="

// OverloadedError is the typed refusal returned when admission sheds a
// statement. RetryAfter is the server's backoff hint. It unwraps to
// ErrOverloaded.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("govern: server overloaded; %s%dms", overloadedMarker, e.RetryAfter.Milliseconds())
}

func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// ParseOverloaded recovers a typed *OverloadedError from an error message
// that crossed the wire as a string. ok is false when the message does not
// carry the overload marker.
func ParseOverloaded(msg string) (*OverloadedError, bool) {
	i := strings.Index(msg, overloadedMarker)
	if i < 0 {
		return nil, false
	}
	rest := msg[i+len(overloadedMarker):]
	end := strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' })
	if end == 0 {
		return nil, false
	}
	if end < 0 {
		end = len(rest)
	}
	ms, err := strconv.ParseInt(rest[:end], 10, 64)
	if err != nil {
		return nil, false
	}
	return &OverloadedError{RetryAfter: time.Duration(ms) * time.Millisecond}, true
}

// AdmissionStats is a point-in-time snapshot of the admission gate.
type AdmissionStats struct {
	Admitted int64 // statements that got a slot
	Shed     int64 // statements refused with ErrOverloaded
	InFlight int64 // slots currently held
}

// retryPerStatement is the backoff a shed statement is told to wait for
// each statement running ahead of it.
const retryPerStatement = 50 * time.Millisecond

// Admission bounds statement concurrency with a slot pool. A statement
// takes a free slot or is shed at once with a typed *OverloadedError
// carrying a retry hint; nothing waits, so a statement that is admitted
// runs at unloaded latency and the excess is turned back to the client's
// backoff.
//
// A nil *Admission admits everything: Acquire returns a no-op release.
type Admission struct {
	slots chan struct{}

	admitted atomic.Int64
	shed     atomic.Int64
	inFlight atomic.Int64
}

// NewAdmission builds an admission gate with maxConcurrent slots.
// maxConcurrent <= 0 disables the gate (returns nil).
func NewAdmission(maxConcurrent int) *Admission {
	if maxConcurrent <= 0 {
		return nil
	}
	return &Admission{slots: make(chan struct{}, maxConcurrent)}
}

// Acquire claims a free execution slot or sheds the statement. The
// returned release function MUST be called exactly once when the
// statement finishes. On refusal it returns a *OverloadedError whose
// RetryAfter is 50ms per statement in flight (counting at least one, so
// the hint never parses back from the wire's whole milliseconds as "no
// hint"), capped at 2s.
func (a *Admission) Acquire() (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		a.inFlight.Add(1)
		return a.release, nil
	default:
	}
	a.shed.Add(1)
	after := time.Duration(max(a.inFlight.Load(), 1)) * retryPerStatement
	return nil, &OverloadedError{RetryAfter: min(after, 2*time.Second)}
}

func (a *Admission) release() {
	a.inFlight.Add(-1)
	<-a.slots
}

// Stats snapshots the admission counters. Zero-valued for a nil gate.
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		Admitted: a.admitted.Load(),
		Shed:     a.shed.Load(),
		InFlight: a.inFlight.Load(),
	}
}
