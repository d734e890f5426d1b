package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(30*time.Millisecond, func(Stamp) { got = append(got, 3) })
	s.At(10*time.Millisecond, func(Stamp) { got = append(got, 1) })
	s.At(20*time.Millisecond, func(Stamp) { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock %v, want 30ms", s.Now())
	}
}

func TestSchedulerTieBreakIsFIFO(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func(Stamp) { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order %v not FIFO", got)
		}
	}
}

func TestSchedulerAfterChaining(t *testing.T) {
	var s Scheduler
	var stamps []Stamp
	var tick func(Stamp)
	n := 0
	tick = func(now Stamp) {
		stamps = append(stamps, now)
		if n++; n < 5 {
			s.After(time.Second, tick)
		}
	}
	s.After(time.Second, tick)
	s.Run()
	if len(stamps) != 5 {
		t.Fatalf("got %d ticks, want 5", len(stamps))
	}
	for i, st := range stamps {
		if want := time.Duration(i+1) * time.Second; st != want {
			t.Fatalf("tick %d at %v, want %v", i, st, want)
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	var s Scheduler
	fired := 0
	s.At(time.Second, func(Stamp) { fired++ })
	s.At(3*time.Second, func(Stamp) { fired++ })
	s.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired %d events before deadline, want 1", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock %v, want 2s", s.Now())
	}
	if s.Len() != 1 {
		t.Fatalf("%d events pending, want 1", s.Len())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired %d total, want 2", fired)
	}
}

func TestSchedulerNegativeAfterClamps(t *testing.T) {
	var s Scheduler
	s.At(time.Second, func(Stamp) {
		// From within an event, scheduling with a negative delay lands "now".
		s.After(-5*time.Second, func(now Stamp) {
			if now != time.Second {
				t.Fatalf("clamped event at %v, want 1s", now)
			}
		})
	})
	s.Run()
}

func TestSchedulerPastPanics(t *testing.T) {
	var s Scheduler
	s.At(time.Second, func(Stamp) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(500*time.Millisecond, func(Stamp) {})
}

func TestStepOnEmpty(t *testing.T) {
	var s Scheduler
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestSchedulerMatchesStableSort drives random At/After interleavings,
// with events scheduling more events and many same-instant ties, and
// requires the firing order to equal a stable sort of every scheduled
// event by instant (stability = scheduling order, the seq tie-break).
func TestSchedulerMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var s Scheduler
		type ev struct {
			id int
			at Stamp
		}
		var scheduled []ev
		var fired []int
		var schedule func(at Stamp)
		schedule = func(at Stamp) {
			id := len(scheduled)
			scheduled = append(scheduled, ev{id, at})
			s.At(at, func(now Stamp) {
				if now != at {
					t.Fatalf("seed %d: event %d fired at %v, scheduled for %v", seed, id, now, at)
				}
				fired = append(fired, id)
				// Children land on a coarse grid so ties are common,
				// including zero-delay ties with the current instant.
				for k := r.Intn(3); k > 0 && len(scheduled) < 2000; k-- {
					schedule(now + Stamp(r.Intn(4))*time.Millisecond)
				}
			})
		}
		for i := 0; i < 200; i++ {
			schedule(s.Now() + Stamp(r.Intn(8))*time.Millisecond)
			switch r.Intn(4) {
			case 0:
				s.Step()
			case 1:
				s.RunUntil(s.Now() + Stamp(r.Intn(3))*time.Millisecond)
			}
		}
		s.Run()

		want := append([]ev(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d of %d events", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i].id {
				t.Fatalf("seed %d: position %d fired event %d, want %d", seed, i, fired[i], want[i].id)
			}
		}
	}
}

// TestSchedulerWarmNoAllocs checks that once the queue has grown, At plus
// Step allocate nothing.
func TestSchedulerWarmNoAllocs(t *testing.T) {
	var s Scheduler
	nop := func(Stamp) {}
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i), nop)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+time.Millisecond, nop)
		s.At(s.Now()+time.Millisecond, nop)
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("warm At+Step allocated %.1f times per run", allocs)
	}
}
