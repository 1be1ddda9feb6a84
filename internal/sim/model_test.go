package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"atcsched/internal/rng"
)

// refEvent mirrors one scheduled callback in the reference model.
type refEvent struct {
	at       Time
	seq      int
	canceled bool
}

// TestEngineMatchesReferenceModel drives the engine with a random script
// of schedule/cancel operations and compares the firing order against a
// naive sort-based model — the event pool and heap must be perfectly
// invisible.
func TestEngineMatchesReferenceModel(t *testing.T) {
	type op struct {
		Delay  uint16
		Cancel uint8 // cancel the (Cancel % scheduled)-th event before adding
	}
	f := func(ops []op) bool {
		e := New()
		var model []refEvent
		var handles []Handle
		var fired []int

		for i, o := range ops {
			if len(handles) > 0 && o.Cancel%3 == 0 {
				idx := int(o.Cancel) % len(handles)
				e.Cancel(handles[idx])
				model[idx].canceled = true
			}
			seq := i
			ev := e.Schedule(Time(o.Delay), func() { fired = append(fired, seq) })
			handles = append(handles, ev)
			model = append(model, refEvent{at: e.Now() + Time(o.Delay), seq: seq})
		}
		e.Run()

		// Reference: uncanceled events sorted by (at, seq). Because all
		// scheduling happened before any firing (Now()==0 during setup),
		// the order is exactly this sort.
		var want []int
		idxs := make([]int, 0, len(model))
		for i, m := range model {
			if !m.canceled {
				idxs = append(idxs, i)
			}
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			if model[idxs[a]].at != model[idxs[b]].at {
				return model[idxs[a]].at < model[idxs[b]].at
			}
			return model[idxs[a]].seq < model[idxs[b]].seq
		})
		for _, i := range idxs {
			want = append(want, model[i].seq)
		}
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEventPoolReuseIsInvisible hammers schedule/fire/cancel cycles and
// verifies late cancels of fired events never affect recycled ones.
func TestEventPoolReuseIsInvisible(t *testing.T) {
	e := New()
	var stale []Handle
	fired := 0
	for round := 0; round < 50; round++ {
		ev := e.Schedule(Time(round), func() { fired++ })
		stale = append(stale, ev)
		e.Run()
		// Cancel all stale (already fired) handles: must be no-ops even
		// though their objects may have been recycled... they were not
		// rescheduled yet, so this is the documented-legal window.
		for _, s := range stale {
			e.Cancel(s)
		}
	}
	if fired != 50 {
		t.Fatalf("fired = %d, want 50", fired)
	}
	// After all that cancel noise, fresh events must still fire.
	ok := false
	e.Schedule(1, func() { ok = true })
	e.Run()
	if !ok {
		t.Fatal("fresh event killed by stale cancel")
	}
}

// scheduler is the surface the re-entrant differential test drives: the
// engine (engineSched) and the naive reference model (refSched) both
// implement it. Tokens are assigned in scheduling order from 0.
type scheduler interface {
	Now() Time
	Schedule(d Time, fn func()) int
	Cancel(tok int)
	RunUntil(t Time)
	Pending() int
}

// engineSched adapts Engine to scheduler.
type engineSched struct {
	e       *Engine
	handles []Handle
}

func (s *engineSched) Now() Time { return s.e.Now() }
func (s *engineSched) Schedule(d Time, fn func()) int {
	s.handles = append(s.handles, s.e.Schedule(d, fn))
	return len(s.handles) - 1
}
func (s *engineSched) Cancel(tok int)  { s.e.Cancel(s.handles[tok]) }
func (s *engineSched) RunUntil(t Time) { s.e.RunUntil(t) }
func (s *engineSched) Pending() int    { return s.e.Pending() }

// refSched is the reference model: a flat list of events, each step a
// linear scan for the live event with the least (at, seq).
type refSched struct {
	now    Time
	events []refSchedEvent
}

type refSchedEvent struct {
	at         Time
	fn         func()
	done, dead bool // fired; canceled
}

func (s *refSched) Now() Time { return s.now }
func (s *refSched) Schedule(d Time, fn func()) int {
	s.events = append(s.events, refSchedEvent{at: s.now + d, fn: fn})
	return len(s.events) - 1
}
func (s *refSched) Cancel(tok int) {
	if !s.events[tok].done {
		s.events[tok].dead = true
	}
}
func (s *refSched) RunUntil(t Time) {
	for {
		next := -1
		for i, ev := range s.events {
			// The slice index is the scheduling sequence number.
			if !ev.done && !ev.dead && ev.at <= t && (next < 0 || ev.at < s.events[next].at) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		s.events[next].done = true
		s.now = s.events[next].at
		s.events[next].fn()
	}
	if t > s.now {
		s.now = t
	}
}
func (s *refSched) Pending() int {
	n := 0
	for _, ev := range s.events {
		if !ev.done && !ev.dead {
			n++
		}
	}
	return n
}

// firing is one entry of a re-entrant run's log.
type firing struct {
	id      int
	at      Time
	pending int
}

// driveReentrant runs one seeded re-entrant script on s and returns its
// firing log. What an event does when it fires is a pure function of
// (seed, its id), so two schedulers that fire in the same order perform
// the same operations: schedule follow-ups at delay 0 (the same-instant
// path) or at short positive delays (heap events that tie with it), and
// cancel the event just scheduled (often still due at this instant),
// the firing event itself (a no-op), or any event so far (pending,
// fired or already canceled). The run is driven by RunUntil over a
// seeded ladder of targets, scheduling from outside callbacks between
// rungs, where the clock has just been moved.
func driveReentrant(s scheduler, seed uint64) []firing {
	const budget = 400
	var log []firing
	count := 0
	delay := func(r *rng.Source) Time {
		if r.Intn(2) == 0 {
			return 0
		}
		return Time(1 + r.Intn(3))
	}
	var schedule func(d Time)
	schedule = func(d Time) {
		if count >= budget {
			return
		}
		id := count
		count++
		s.Schedule(d, func() {
			log = append(log, firing{id: id, at: s.Now(), pending: s.Pending()})
			r := rng.NewStream(seed, uint64(id))
			for range 1 + r.Intn(3) {
				switch r.Intn(5) {
				case 0, 1, 2:
					schedule(delay(r))
				case 3:
					s.Cancel(count - 1)
				default:
					if r.Intn(2) == 0 {
						s.Cancel(id)
					} else {
						s.Cancel(r.Intn(count))
					}
				}
			}
		})
	}
	r := rng.NewStream(seed, budget)
	for range 1 + r.Intn(6) {
		schedule(delay(r))
	}
	for t := Time(0); s.Pending() > 0; t += Time(r.Intn(3)) {
		s.RunUntil(t)
		log = append(log, firing{id: -1, at: s.Now(), pending: s.Pending()})
		if r.Intn(4) == 0 {
			schedule(delay(r))
		}
	}
	return log
}

// TestEngineReentrantMatchesReferenceModel is the re-entrant companion
// of TestEngineMatchesReferenceModel: callbacks schedule at delay 0 and
// at positive delays and cancel pending, same-instant and fired events,
// so same-instant FIFO entries interleave with heap events due at the
// same instant. The engine's firing order, clock and Pending count must
// match the naive (at, seq) model's at every firing.
func TestEngineReentrantMatchesReferenceModel(t *testing.T) {
	fifoTies := 0
	for seed := uint64(1); seed <= 300; seed++ {
		got := driveReentrant(&engineSched{e: New()}, seed)
		want := driveReentrant(&refSched{}, seed)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: entry %d: engine %+v, model %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: engine logged %d entries, model %d", seed, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i].id >= 0 && got[i-1].id >= 0 && got[i].at == got[i-1].at {
				fifoTies++
			}
		}
	}
	if fifoTies < 10000 {
		t.Fatalf("only %d same-instant firings over all seeds; the script no longer exercises ties", fifoTies)
	}
}

// TestShardGroupInjectsOntoEngineClock covers a cross event injected at
// exactly its destination engine's clock: the engine ran its window up
// to the window end, where the injected events are due, so they enter
// the same-instant FIFO and must keep their (at, src, seq) injection
// order ahead of the zero-delay follow-ups they schedule. The log must
// be the same at one and two shards.
func TestShardGroupInjectsOntoEngineClock(t *testing.T) {
	const look = 10
	for _, shards := range []int{1, 2} {
		g := NewShardGroup(shards, look)
		g.AssignSource(0, 0)
		g.AssignSource(1, shards-1)
		a, b := g.Engine(0), g.Engine(shards-1)
		// One log per node: at two shards the nodes run concurrently.
		var logA, logB []string
		noteA := func(name string) { logA = append(logA, fmt.Sprintf("%s@%d", name, a.Now())) }
		noteB := func(name string) { logB = append(logB, fmt.Sprintf("%s@%d", name, b.Now())) }
		a.At(3, func() {
			noteA("a3")
			g.Post(0, 1, look, func() {
				noteB("x1")
				if b.dueHead >= len(b.due) {
					t.Errorf("shards=%d: x2 is not waiting in b's same-instant FIFO", shards)
				}
				b.Schedule(0, func() { noteB("x1c") })
				b.Schedule(2, func() { noteB("x1d") })
			})
			g.Post(0, 1, look, func() {
				noteB("x2")
				b.Schedule(0, func() { noteB("x2c") })
			})
			g.Post(0, 1, look+2, func() { noteB("x3") })
		})
		b.At(4, func() {
			noteB("b4")
			b.At(look, func() {
				noteB("b10")
				b.Schedule(0, func() { noteB("b10c") })
			})
		})
		g.RunUntil(3 * look)
		if want := []string{"a3@3"}; !slices.Equal(logA, want) {
			t.Errorf("shards=%d: node 0 log %v, want %v", shards, logA, want)
		}
		want := []string{"b4@4", "b10@10", "b10c@10", "x1@10", "x2@10", "x1c@10", "x2c@10", "x3@12", "x1d@12"}
		if !slices.Equal(logB, want) {
			t.Errorf("shards=%d: node 1 log %v, want %v", shards, logB, want)
		}
		if p := g.Pending(); p != 0 {
			t.Errorf("shards=%d: %d events pending after the run", shards, p)
		}
	}
}
