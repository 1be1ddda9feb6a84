package netmodel

import (
	"testing"

	"atcsched/internal/sim"
)

// TestConvergingSendersSerializeAtReceiver pins the receiver-pacing fix:
// N senders converging on one NIC drain at line rate, not N× it. Before
// the fix the receive side modeled only the pipelined arrival, so three
// concurrent 1 ms packets all landed at 1 ms.
func TestConvergingSendersSerializeAtReceiver(t *testing.T) {
	cfg := Config{BytesPerSec: 125e6, WireLatency: wire, LocalLatency: 0}
	f := newTestNet(4, cfg)
	var at [3]sim.Time
	for i := 0; i < 3; i++ {
		i := i
		f.Send(i, 3, 125000, func() { at[i] = f.eng.Now() })
	}
	f.run()
	for i, want := range []sim.Time{sim.Millisecond + wire, 2*sim.Millisecond + wire, 3*sim.Millisecond + wire} {
		if at[i] != want {
			t.Errorf("converging delivery %d at %v, want %v", i, at[i], want)
		}
	}
}

// TestIdleReceiverSeesPipelinedArrival pins the other half of the model:
// a single flow still lands WireLatency after the last byte leaves the
// sender — receiver serialization must not add latency when the NIC is
// idle.
func TestIdleReceiverSeesPipelinedArrival(t *testing.T) {
	cfg := Config{BytesPerSec: 125e6, WireLatency: 50 * sim.Microsecond, LocalLatency: 0}
	f := newTestNet(2, cfg)
	var at sim.Time
	f.Send(0, 1, 125000, func() { at = f.eng.Now() })
	f.run()
	if want := sim.Millisecond + 50*sim.Microsecond; at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
}

// TestLossRetransmitsAndConserves pins the loss model: a discarded
// attempt is retried after the timeout, the packet arrives late rather
// than never, and the counters record both faces.
func TestLossRetransmitsAndConserves(t *testing.T) {
	cfg := Config{BytesPerSec: 125e6, WireLatency: wire, LocalLatency: 0} // default 1 ms RTO
	f := newTestNet(2, cfg)
	attempts := 0
	f.SetLoss(func(src, dst int, now sim.Time) bool {
		attempts++
		return attempts == 1 // lose exactly the first attempt
	})
	var at sim.Time
	f.Send(0, 1, 125000, func() { at = f.eng.Now() })
	f.run()
	// Attempt 1 serializes to 1 ms and is lost; the retry fires at 2 ms
	// and serializes to 3 ms.
	if want := 3*sim.Millisecond + wire; at != want {
		t.Errorf("lossy delivery at %v, want %v", at, want)
	}
	if f.PacketsLost() != 1 || f.Retransmits() != 1 {
		t.Errorf("lost = %d retx = %d, want 1/1", f.PacketsLost(), f.Retransmits())
	}
	if f.PacketsSent() != 1 || f.PacketsDelivered() != 1 || f.InFlight() != 0 {
		t.Errorf("conservation: sent=%d delivered=%d inflight=%d",
			f.PacketsSent(), f.PacketsDelivered(), f.InFlight())
	}
}

// TestBandwidthHookStretchesSerialization pins the degradation hook: at
// half rate a 1 ms packet takes 2 ms on the sender's NIC.
func TestBandwidthHookStretchesSerialization(t *testing.T) {
	cfg := Config{BytesPerSec: 125e6, WireLatency: wire, LocalLatency: 0}
	f := newTestNet(2, cfg)
	f.SetBandwidth(func(node int, now sim.Time) float64 { return 0.5 })
	var at sim.Time
	f.Send(0, 1, 125000, func() { at = f.eng.Now() })
	f.run()
	if want := 2*sim.Millisecond + wire; at != want {
		t.Errorf("degraded delivery at %v, want %v", at, want)
	}
	// Out-of-range fractions mean full rate.
	f2 := newTestNet(2, cfg)
	f2.SetBandwidth(func(node int, now sim.Time) float64 { return 7 })
	f2.Send(0, 1, 125000, func() { at = f2.eng.Now() })
	f2.run()
	if want := sim.Millisecond + wire; at != want {
		t.Errorf("full-rate delivery at %v, want %v", at, want)
	}
}

// TestLocalLoopbackPacing pins the opt-in local pacing: with
// LocalBytesPerSec set, back-to-back node-local sends serialize on the
// loopback; without it they land together, but the bytes are tallied
// either way (the bypass is visible, not silent).
func TestLocalLoopbackPacing(t *testing.T) {
	cfg := Config{BytesPerSec: 125e6, LocalBytesPerSec: 125e6,
		WireLatency: wire, LocalLatency: 5 * sim.Microsecond}
	f := newTestNet(2, cfg)
	var first, second sim.Time
	f.Send(0, 0, 125000, func() { first = f.eng.Now() })
	f.Send(0, 0, 125000, func() { second = f.eng.Now() })
	f.run()
	ll := cfg.LocalLatency
	if want := sim.Millisecond + ll; first != want {
		t.Errorf("first paced local delivery at %v, want %v", first, want)
	}
	if want := 2*sim.Millisecond + ll; second != want {
		t.Errorf("second paced local delivery at %v, want serialized %v", second, want)
	}
	if f.LocalBytes() != 250000 || f.WireBytes() != 0 {
		t.Errorf("localBytes = %d wireBytes = %d, want 250000/0", f.LocalBytes(), f.WireBytes())
	}

	// Historical behaviour when unset: no pacing, bytes still counted.
	f2 := newTestNet(2, DefaultConfig())
	var a, b sim.Time
	f2.Send(0, 0, 125000, func() { a = f2.eng.Now() })
	f2.Send(0, 0, 125000, func() { b = f2.eng.Now() })
	f2.run()
	if ll := DefaultConfig().LocalLatency; a != ll || b != ll {
		t.Errorf("unpaced local deliveries at %v/%v, want both %v", a, b, ll)
	}
	if f2.LocalBytes() != 250000 {
		t.Errorf("unpaced localBytes = %d, want 250000", f2.LocalBytes())
	}
}
