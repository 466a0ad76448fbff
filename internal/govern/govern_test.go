package govern

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBudgetReserveRefusesPastLimit(t *testing.T) {
	b := NewBudget(1000)
	if err := b.Reserve(600); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	err := b.Reserve(500)
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("want ErrResourceExhausted, got %v", err)
	}
	var re *ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("want *ResourceExhaustedError, got %T", err)
	}
	if re.Requested != 500 || re.Used != 600 || re.Limit != 1000 {
		t.Fatalf("bad sizing context: %+v", re)
	}
	if b.Denied() != 1 {
		t.Fatalf("denied = %d, want 1", b.Denied())
	}
	b.Release(600)
	if b.Used() != 0 {
		t.Fatalf("used = %d after full release", b.Used())
	}
	if err := b.Reserve(500); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
}

func TestBudgetChargeIsUnconditionalAndVisible(t *testing.T) {
	b := NewBudget(100)
	b.Charge(150) // must not fail even though it overshoots
	if b.Used() != 150 {
		t.Fatalf("used = %d, want 150", b.Used())
	}
	if err := b.Reserve(1); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("reserve under overshoot: want refusal, got %v", err)
	}
	b.Release(150)
	if b.Used() != 0 {
		t.Fatalf("used = %d after release", b.Used())
	}
}

func TestBudgetReleaseClampsAtZero(t *testing.T) {
	b := NewBudget(100)
	b.Charge(10)
	b.Release(50)
	if got := b.Used(); got != 0 {
		t.Fatalf("used = %d, want 0 (clamped)", got)
	}
}

func TestBudgetNilIsNoop(t *testing.T) {
	var b *Budget
	if err := b.Reserve(1 << 40); err != nil {
		t.Fatalf("nil budget reserve: %v", err)
	}
	b.Charge(1)
	b.Release(1)
	if b.Used() != 0 || b.HighWater() != 0 || b.Denied() != 0 || b.Limit() != 0 {
		t.Fatal("nil budget should report zeros")
	}
}

func TestBudgetUnlimitedTracksButNeverRefuses(t *testing.T) {
	b := NewBudget(0)
	if err := b.Reserve(1 << 40); err != nil {
		t.Fatalf("unlimited reserve: %v", err)
	}
	if b.Used() != 1<<40 {
		t.Fatalf("used = %d", b.Used())
	}
}

func TestBudgetHighWater(t *testing.T) {
	b := NewBudget(0)
	b.Charge(100)
	b.Release(100)
	b.Charge(40)
	if b.HighWater() != 100 {
		t.Fatalf("highwater = %d, want 100", b.HighWater())
	}
}

func TestBudgetConcurrentChargesBalance(t *testing.T) {
	b := NewBudget(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b.Charge(7)
				b.Release(7)
			}
		}()
	}
	wg.Wait()
	if b.Used() != 0 {
		t.Fatalf("used = %d after balanced ops", b.Used())
	}
}

func TestReservationReleasesEverything(t *testing.T) {
	b := NewBudget(1000)
	r := NewReservation(b)
	if err := r.Grow(300); err != nil {
		t.Fatal(err)
	}
	if err := r.Grow(200); err != nil {
		t.Fatal(err)
	}
	if r.Held() != 500 || b.Used() != 500 {
		t.Fatalf("held=%d used=%d", r.Held(), b.Used())
	}
	r.Release()
	r.Release() // idempotent
	if r.Held() != 0 || b.Used() != 0 {
		t.Fatalf("after release: held=%d used=%d", r.Held(), b.Used())
	}
}

func TestReservationGrowFailureLeavesHeldConsistent(t *testing.T) {
	b := NewBudget(100)
	r := NewReservation(b)
	if err := r.Grow(80); err != nil {
		t.Fatal(err)
	}
	if err := r.Grow(50); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("want refusal, got %v", err)
	}
	if r.Held() != 80 {
		t.Fatalf("held = %d, want 80 (failed grow must not count)", r.Held())
	}
	r.Release()
	if b.Used() != 0 {
		t.Fatalf("used = %d", b.Used())
	}
}

func TestReservationNil(t *testing.T) {
	var r *Reservation
	if err := r.Grow(10); err != nil {
		t.Fatal(err)
	}
	r.Release()
	if r.Held() != 0 {
		t.Fatal("nil reservation holds nothing")
	}
}

func TestAdmissionImmediateSlot(t *testing.T) {
	a := NewAdmission(2)
	rel1, err := a.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.InFlight != 2 || s.Admitted != 2 {
		t.Fatalf("stats = %+v", s)
	}
	rel1()
	rel2()
	if s := a.Stats(); s.InFlight != 0 {
		t.Fatalf("stats after release = %+v", s)
	}
}

func TestAdmissionShedsWhenSaturated(t *testing.T) {
	a := NewAdmission(1)
	rel, err := a.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	_, err = a.Acquire()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OverloadedError, got %T", err)
	}
	if oe.RetryAfter != 50*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 50ms for one statement in flight", oe.RetryAfter)
	}
	if s := a.Stats(); s.Shed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestAdmissionRetryHintCapped: the hint grows 50ms per statement in
// flight and stops at 2s.
func TestAdmissionRetryHintCapped(t *testing.T) {
	a := NewAdmission(64)
	for i := 0; i < 64; i++ {
		rel, err := a.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer rel()
	}
	var oe *OverloadedError
	if _, err := a.Acquire(); !errors.As(err, &oe) || oe.RetryAfter != 2*time.Second {
		t.Fatalf("want a 2s hint at 64 in flight, got %v", err)
	}
}

func TestAdmissionNilAdmitsEverything(t *testing.T) {
	var a *Admission
	rel, err := a.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if s := a.Stats(); s != (AdmissionStats{}) {
		t.Fatalf("nil stats = %+v", s)
	}
}

func TestParseOverloadedRoundTrip(t *testing.T) {
	oe := &OverloadedError{RetryAfter: 250 * time.Millisecond}
	wrapped := "core: statement refused: " + oe.Error()
	got, ok := ParseOverloaded(wrapped)
	if !ok {
		t.Fatalf("ParseOverloaded failed on %q", wrapped)
	}
	if got.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v", got.RetryAfter)
	}
	if !errors.Is(got, ErrOverloaded) {
		t.Fatal("parsed error must unwrap to ErrOverloaded")
	}
	if _, ok := ParseOverloaded("some other error"); ok {
		t.Fatal("false positive on unrelated message")
	}
	if _, ok := ParseOverloaded("retry-after=ms"); ok {
		t.Fatal("false positive on empty digits")
	}
}
