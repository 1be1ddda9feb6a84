package sim

import (
	"fmt"
	"testing"
)

// TestFreePoolCapped proves the Event recycle list stays bounded under a
// cancel-heavy burst (the pool used to grow without limit, pinning the
// burst's memory for the whole run).
func TestFreePoolCapped(t *testing.T) {
	e := New()
	handles := make([]Handle, 0, 4*maxFreeEvents)
	for i := 0; i < 4*maxFreeEvents; i++ {
		handles = append(handles, e.Schedule(Time(i+1), func() {}))
	}
	for _, h := range handles {
		e.Cancel(h)
	}
	if len(e.free) > maxFreeEvents {
		t.Fatalf("free pool grew to %d after cancel burst, cap is %d", len(e.free), maxFreeEvents)
	}
	// Fired events respect the cap too.
	for i := 0; i < 4*maxFreeEvents; i++ {
		e.Schedule(Time(i+1), func() {})
	}
	e.Run()
	if len(e.free) > maxFreeEvents {
		t.Fatalf("free pool grew to %d after run, cap is %d", len(e.free), maxFreeEvents)
	}
	// Canceled same-instant events are recycled lazily, as the FIFO
	// skips them; that path respects the cap too.
	handles = handles[:0]
	for i := 0; i < 4*maxFreeEvents; i++ {
		handles = append(handles, e.Schedule(0, func() {}))
	}
	for _, h := range handles {
		e.Cancel(h)
	}
	if p := e.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after canceling every same-instant event, want 0", p)
	}
	e.Run()
	if len(e.free) > maxFreeEvents {
		t.Fatalf("free pool grew to %d after skipping canceled same-instant events, cap is %d", len(e.free), maxFreeEvents)
	}
}

// TestSameInstantFIFOBounded runs two interleaved zero-delay chains of
// 1e5 events at one instant. The FIFO never drains, so without
// compaction its spent prefix would grow with every event; with it the
// backing array stays at a few slots.
func TestSameInstantFIFOBounded(t *testing.T) {
	e := New()
	const n = 100000
	left := n
	var chain func()
	chain = func() {
		if left > 0 {
			left--
			e.Schedule(0, chain)
		}
	}
	e.Schedule(0, chain)
	e.Schedule(0, chain)
	e.Run()
	if e.Executed() != n+2 || e.Now() != 0 {
		t.Fatalf("fired %d events, clock %v; want %d at 0", e.Executed(), e.Now(), n+2)
	}
	if c := cap(e.due); c > 8 {
		t.Fatalf("same-instant FIFO capacity %d after two interleaved chains, want <= 8", c)
	}
}

// TestSameInstantAllocs is TestSteadyStateAllocs for the same-instant
// path: once warm, a zero-delay schedule+fire cycle must not allocate.
func TestSameInstantAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(0, fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		e.Schedule(0, fn)
		e.Step()
	})
	if avg > 0 {
		t.Fatalf("steady-state zero-delay schedule+fire allocates %.2f objects per cycle, want 0", avg)
	}
}

// TestSteadyStateAllocs is the alloc-count regression test for the event
// pool: once warm, a schedule/fire cycle must reuse pooled Events rather
// than allocate.
func TestSteadyStateAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the pool and the heap slice.
	for i := 0; i < 64; i++ {
		e.Schedule(1, fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		e.Schedule(1, fn)
		e.Step()
	})
	if avg > 0 {
		t.Fatalf("steady-state schedule+fire allocates %.2f objects per cycle, want 0", avg)
	}
}

// TestShardGroupSteadyStateAllocs is the group-level companion of
// TestSteadyStateAllocs: once warm, a cross-source Post followed by a
// RunUntil across several windows — collect, sort, inject, fire — must
// not allocate.
func TestShardGroupSteadyStateAllocs(t *testing.T) {
	const look = 50 * Microsecond
	g := NewShardGroup(1, look)
	g.AssignSource(0, 0)
	g.AssignSource(1, 0)
	eng := g.Engine(0)
	fn := func() {}
	post := func() {
		for i := 0; i < 4; i++ {
			g.Post(i%2, 1-i%2, eng.Now()+look+Time(4-i)*Microsecond, fn)
		}
	}
	cycle := func() {
		now := g.Now()
		eng.At(now+Microsecond, post)
		g.RunUntil(now + 3*look)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Fatalf("steady-state Post+RunUntil allocates %.2f objects per cycle, want 0", avg)
	}
}

// shardScript runs a fixed cross-source ping-pong script on a group with
// the given shard count and source→shard assignment, returning an
// execution log that must be identical for every sharding.
func shardScript(t *testing.T, shards int, assign func(src int) int) string {
	t.Helper()
	const look = 50 * Microsecond
	const sources = 4
	g := NewShardGroup(shards, look)
	for s := 0; s < sources; s++ {
		g.AssignSource(s, assign(s))
	}
	// One log per source: each source's events run on exactly one shard's
	// goroutine, so per-source appends are race-free, and the per-source
	// event order (with timestamps) is the determinism contract.
	logs := make([][]string, sources)
	var hop func(src, hops int) func()
	hop = func(src, hops int) func() {
		return func() {
			eng := g.Engine(g.shardOf[src])
			logs[src] = append(logs[src], fmt.Sprintf("src%d hop%d at=%d", src, hops, eng.Now()))
			if hops == 0 {
				return
			}
			dst := (src + 1) % sources
			// Cross-source: at least one lookahead of delay.
			g.Post(src, dst, eng.Now()+look+Time(src+1)*Microsecond, hop(dst, hops-1))
			// Source-local follow-up inside the window.
			eng.Schedule(Time(hops)*Microsecond, func() {
				logs[src] = append(logs[src], fmt.Sprintf("src%d local%d at=%d", src, hops, eng.Now()))
			})
		}
	}
	for s := 0; s < sources; s++ {
		g.Engine(assign(s)).At(Time(s)*Microsecond, hop(s, 6))
	}
	g.RunUntil(5 * Millisecond)
	if got := g.Now(); got != 5*Millisecond {
		t.Fatalf("group clock %v, want 5ms", got)
	}
	out := ""
	for _, l := range logs {
		for _, line := range l {
			out += line + "\n"
		}
	}
	return out
}

// TestShardGroupDeterministic proves the cross-shard delivery order is a
// pure function of virtual time: the same script executes identically at
// shard counts 1, 2 and 4 and under different source placements.
func TestShardGroupDeterministic(t *testing.T) {
	ref := shardScript(t, 1, func(int) int { return 0 })
	cases := []struct {
		name   string
		shards int
		assign func(int) int
	}{
		{"2-shards-split", 2, func(s int) int { return s % 2 }},
		{"2-shards-blocks", 2, func(s int) int { return s / 2 }},
		{"4-shards", 4, func(s int) int { return s }},
	}
	for _, c := range cases {
		if got := shardScript(t, c.shards, c.assign); got != ref {
			t.Errorf("%s: execution log diverged from serial reference\nref:\n%s\ngot:\n%s", c.name, ref, got)
		}
	}
}

// randomScript runs a seeded random script on a group: every source
// fires local follow-ups (some landing exactly on window boundaries, some
// after idle gaps of many windows) and Posts to random destinations, and
// the run is driven in chunks that end mid-window. It returns the
// execution log and the group's counters minus ParallelSegments, the
// only one that depends on the shard count.
func randomScript(shards int, assign func(src int) int, seed uint64) (string, SyncStats) {
	const look = 50 * Microsecond
	const sources = 5
	g := NewShardGroup(shards, look)
	for s := 0; s < sources; s++ {
		g.AssignSource(s, assign(s))
	}
	logs := make([][]string, sources)
	state := make([]uint64, sources) // per-source xorshift, race-free
	budget := make([]int, sources)
	draw := func(src int, n uint64) uint64 {
		x := state[src]
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		state[src] = x
		return x % n
	}
	var fire func(src int) func()
	fire = func(src int) func() {
		return func() {
			eng := g.Engine(g.shardOf[src])
			logs[src] = append(logs[src], fmt.Sprintf("src%d at=%d", src, eng.Now()))
			if budget[src]--; budget[src] < 0 {
				return
			}
			var delay Time
			switch draw(src, 4) {
			case 0: // to the next window boundary
				delay = (eng.Now()/look+1)*look - eng.Now()
			case 1: // idle gap of many windows
				delay = Time(5+draw(src, 20)) * look
			default:
				delay = Time(draw(src, 3*uint64(look)))
			}
			eng.Schedule(delay, fire(src))
			if draw(src, 3) == 0 {
				dst := int(draw(src, sources))
				g.Post(src, dst, eng.Now()+look+Time(draw(src, 2))*Time(draw(src, uint64(look))), fire(dst))
			}
		}
	}
	for s := 0; s < sources; s++ {
		state[s] = seed*0x9e3779b97f4a7c15 + uint64(s)*0xbf58476d1ce4e5b9 + 1
		budget[s] = 60
		g.Engine(assign(s)).At(Time(draw(s, uint64(look))), fire(s))
	}
	for _, t := range []Time{130 * Microsecond, 2 * Millisecond, 7*Millisecond + 25*Microsecond, 40 * Millisecond} {
		g.RunUntil(t)
	}
	out := ""
	for _, l := range logs {
		for _, line := range l {
			out += line + "\n"
		}
	}
	st := g.Stats()
	st.ParallelSegments = 0
	return out, st
}

// TestShardGroupFastForwardEquivalent proves the one-active-engine
// fast-forward replays the barrier exactly: random scripts with idle
// gaps, boundary-aligned events and cross traffic execute identically —
// same log, same window, segment and cross-event counts — at one shard
// (always fast-forwarding) and at two and five shards (fast-forwarding
// only when one shard has work).
func TestShardGroupFastForwardEquivalent(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		ref, refStats := randomScript(1, func(int) int { return 0 }, seed)
		for _, c := range []struct {
			shards int
			assign func(int) int
		}{
			{2, func(s int) int { return s % 2 }},
			{5, func(s int) int { return s }},
		} {
			got, st := randomScript(c.shards, c.assign, seed)
			if got != ref {
				t.Errorf("seed %d shards=%d: execution log diverged from one shard\nref:\n%s\ngot:\n%s", seed, c.shards, ref, got)
			}
			if st != refStats {
				t.Errorf("seed %d shards=%d: stats %+v, one shard %+v", seed, c.shards, st, refStats)
			}
		}
	}
}

// TestShardGroupStop proves RequestStop lands at a deterministic segment
// boundary and Resume continues cleanly.
func TestShardGroupStop(t *testing.T) {
	const look = 50 * Microsecond
	g := NewShardGroup(2, look)
	g.AssignSource(0, 0)
	g.AssignSource(1, 1)
	fired := 0
	g.Engine(0).At(10*Microsecond, func() {
		fired++
		g.RequestStop()
	})
	g.Engine(1).At(300*Microsecond, func() { fired++ })
	g.RunUntil(Millisecond)
	if !g.Stopped() {
		t.Fatal("group not stopped after RequestStop")
	}
	if fired != 1 {
		t.Fatalf("fired %d events before stop, want 1", fired)
	}
	// The stop point is the end of the segment the request landed in.
	if g.Now() != look {
		t.Fatalf("stopped at %v, want the window boundary %v", g.Now(), look)
	}
	g.Resume()
	g.RunUntil(Millisecond)
	if fired != 2 || g.Now() != Millisecond {
		t.Fatalf("after resume: fired=%d now=%v, want 2 events and 1ms", fired, g.Now())
	}
}

// TestShardGroupLookaheadViolation proves a Post inside the running
// window is rejected rather than silently reordered.
func TestShardGroupLookaheadViolation(t *testing.T) {
	const look = 50 * Microsecond
	g := NewShardGroup(1, look)
	g.AssignSource(0, 0)
	g.AssignSource(1, 0)
	g.Engine(0).At(Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Post inside the window did not panic")
			}
		}()
		g.Post(0, 1, 2*Microsecond, func() {})
	})
	g.RunUntil(100 * Microsecond)
}
