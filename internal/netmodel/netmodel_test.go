package netmodel

import (
	"testing"
	"testing/quick"

	"atcsched/internal/sim"
)

// wire is the wire latency of the tests that are about serialization
// rather than propagation: small, but positive as the lookahead needs.
const wire = sim.Microsecond

// testNet is a fabric over a one-shard group, wired the way vmm wires
// a world.
type testNet struct {
	*Fabric
	g   *sim.ShardGroup
	eng *sim.Engine
}

func newTestNet(nodes int, cfg Config) *testNet {
	g := sim.NewShardGroup(1, cfg.WireLatency)
	engines := make([]*sim.Engine, nodes)
	for i := range engines {
		engines[i] = g.Engine(0)
		g.AssignSource(i, 0)
	}
	return &testNet{Fabric: New(engines, cfg, g.Post), g: g, eng: g.Engine(0)}
}

// run drains every delivery (the tests' traffic settles within 1 s).
func (n *testNet) run() { n.g.RunUntil(sim.Second) }

func TestLocalDelivery(t *testing.T) {
	f := newTestNet(2, DefaultConfig())
	var at sim.Time
	f.Send(0, 0, 1500, func() { at = f.eng.Now() })
	f.run()
	if at != DefaultConfig().LocalLatency {
		t.Errorf("local delivery at %v, want %v", at, DefaultConfig().LocalLatency)
	}
	if f.WireBytes() != 0 {
		t.Errorf("local send used wire: %d bytes", f.WireBytes())
	}
	if f.PacketsSent() != 1 {
		t.Errorf("PacketsSent = %d", f.PacketsSent())
	}
}

func TestRemoteDeliveryTiming(t *testing.T) {
	cfg := Config{BytesPerSec: 125e6, WireLatency: 50 * sim.Microsecond, LocalLatency: sim.Microsecond}
	f := newTestNet(2, cfg)
	var at sim.Time
	size := 125000 // exactly 1 ms of serialization at 125 MB/s
	f.Send(0, 1, size, func() { at = f.eng.Now() })
	f.run()
	want := sim.Millisecond + 50*sim.Microsecond
	if at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
	if f.WireBytes() != uint64(size) {
		t.Errorf("WireBytes = %d", f.WireBytes())
	}
}

func TestTxSerialization(t *testing.T) {
	cfg := Config{BytesPerSec: 125e6, WireLatency: wire, LocalLatency: 0}
	f := newTestNet(3, cfg)
	var first, second sim.Time
	// Two back-to-back sends from node 0 must serialize on its NIC.
	f.Send(0, 1, 125000, func() { first = f.eng.Now() })
	f.Send(0, 2, 125000, func() { second = f.eng.Now() })
	f.run()
	if first != sim.Millisecond+wire {
		t.Errorf("first = %v", first)
	}
	if second != 2*sim.Millisecond+wire {
		t.Errorf("second = %v, want serialized 2ms", second)
	}
}

func TestIndependentSendersDoNotSerialize(t *testing.T) {
	cfg := Config{BytesPerSec: 125e6, WireLatency: wire, LocalLatency: 0}
	f := newTestNet(4, cfg)
	var a, b sim.Time
	f.Send(0, 2, 125000, func() { a = f.eng.Now() })
	f.Send(1, 3, 125000, func() { b = f.eng.Now() })
	f.run()
	if a != sim.Millisecond+wire || b != sim.Millisecond+wire {
		t.Errorf("a=%v b=%v, want both 1ms (no cross-sender serialization)", a, b)
	}
}

func TestDeliveryOrderPreservedPerPair(t *testing.T) {
	f := newTestNet(2, DefaultConfig())
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		f.Send(0, 1, 1500, func() { got = append(got, i) })
	}
	f.run()
	for i, v := range got {
		if v != i {
			t.Fatalf("deliveries out of order: %v", got)
		}
	}
}

func TestZeroSizePacket(t *testing.T) {
	cfg := Config{BytesPerSec: 125e6, WireLatency: 10 * sim.Microsecond, LocalLatency: 0}
	f := newTestNet(2, cfg)
	var at sim.Time
	f.Send(0, 1, 0, func() { at = f.eng.Now() })
	f.run()
	if at != 10*sim.Microsecond {
		t.Errorf("zero-size delivery at %v", at)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	f := newTestNet(2, DefaultConfig())
	engines := []*sim.Engine{f.eng}
	post := func(src, dst int, at sim.Time, fn func()) {}
	cases := map[string]func(){
		"src range":     func() { f.Send(-1, 0, 1, func() {}) },
		"dst range":     func() { f.Send(0, 5, 1, func() {}) },
		"negative size": func() { f.Send(0, 1, -1, func() {}) },
		"zero nodes":    func() { New(nil, DefaultConfig(), post) },
		"zero bw":       func() { New(engines, Config{WireLatency: wire}, post) },
		"zero wire":     func() { New(engines, Config{BytesPerSec: 125e6}, post) },
		"nil post":      func() { New(engines, DefaultConfig(), nil) },
	}
	for name, fn := range cases {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNodes(t *testing.T) {
	f := newTestNet(7, DefaultConfig())
	if f.Nodes() != 7 {
		t.Errorf("Nodes = %d", f.Nodes())
	}
}

// Property: deliveries never precede sends, in-flight accounting is
// exact, and per-(src,dst) pair order is preserved for any schedule of
// sends.
func TestFabricConservationProperty(t *testing.T) {
	type msg struct {
		Src, Dst uint8
		Size     uint16
		Delay    uint16
	}
	check := func(msgs []msg) bool {
		f := newTestNet(4, DefaultConfig())
		type key struct{ s, d int }
		nextSend := map[key]int{}
		lastDelivered := map[key]int{}
		okOrder := true
		for _, m := range msgs {
			src, dst := int(m.Src)%4, int(m.Dst)%4
			k := key{src, dst}
			size := int(m.Size)
			f.eng.Schedule(sim.Time(m.Delay)*sim.Microsecond, func() {
				seq := nextSend[k] // order at actual send time
				nextSend[k]++
				f.Send(src, dst, size, func() {
					if prev, ok := lastDelivered[k]; ok && prev > seq {
						okOrder = false
					}
					lastDelivered[k] = seq
				})
			})
		}
		f.run()
		return okOrder && f.InFlight() == 0 && f.PacketsDelivered() == uint64(len(msgs))
	}
	f := func(msgs []msg) bool { return check(msgs) }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
