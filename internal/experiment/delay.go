package experiment

import (
	"context"
	"fmt"

	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/rng"
)

// DelaySpec configures an end-to-end delay measurement (§5.1, Fig. 6): a
// sender transmits Count probe messages — unicast to process 2, or
// broadcast to all — one per probeGap, on the default cluster for N, and
// the delay from the Send call to delivery at each destination is
// recorded.
type DelaySpec struct {
	N         int
	Broadcast bool
	Count     int
	Seed      uint64
}

// probeGap is the time between probes, ms.
const probeGap = 1.0

// probeProto emits the probes.
type probeProto struct {
	ctx     neko.Context
	spec    DelaySpec
	sent    int
	sendAt  map[int]float64 // probe seq -> global send time (clock offset excluded by construction below)
	started bool
}

// Start implements neko.Protocol.
func (p *probeProto) Start() {
	p.started = true
	p.emit()
}

func (p *probeProto) emit() {
	if p.sent >= p.spec.Count {
		return
	}
	seq := p.sent
	p.sent++
	p.sendAt[seq] = p.ctx.Now()
	pl := neko.Payload{Kind: neko.PayloadProbe, Seq: uint64(seq)}
	if p.spec.Broadcast {
		neko.Broadcast(p.ctx, neko.Message{Payload: pl})
	} else {
		p.ctx.Send(neko.Message{To: 2, Payload: pl})
	}
	p.ctx.SetTimer(probeGap, p.emit)
}

// MeasureDelaysContext runs the probe experiment and returns one delay
// sample per probe: for unicast, the end-to-end delay; for broadcast, the
// delay "averaged over the destinations" as in Fig. 6. One probe campaign
// is a single uninterruptible DES run (seconds at paper fidelity), so ctx
// gates whether it starts; MeasureFits, which runs several, cancels
// between them.
func MeasureDelaysContext(ctx context.Context, spec DelaySpec) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.N < 2 {
		return nil, fmt.Errorf("experiment: delay measurement needs n >= 2")
	}
	if spec.Count < 1 {
		return nil, fmt.Errorf("experiment: delay measurement needs at least 1 probe")
	}
	// Timer lateness would contaminate the probe spacing, not the per-probe
	// delay; keep the cluster defaults so contention is realistic.
	root := rng.New(spec.Seed ^ 0xde1a7)
	cluster, err := netsim.New(netsim.DefaultParams(spec.N), root.Child(1))
	if err != nil {
		return nil, err
	}
	sender := &probeProto{spec: spec, sendAt: make(map[int]float64)}
	sumDelay := make(map[int]float64)
	gotCount := make(map[int]int)
	// sendAt holds sender-local times while arrivals are stamped with the
	// global clock; senderOffset (local − global, the same at any instant)
	// reconciles the two so the measured delay is skew-free, like the
	// paper's NTP-disciplined round-trip measurements.
	senderOffset := cluster.Context(1).Now() - cluster.Now()
	arrive := func(m *neko.Message) {
		seq := int(m.Payload.Seq)
		sumDelay[seq] += cluster.Now() + senderOffset - sender.sendAt[seq]
		gotCount[seq]++
	}
	for i := 1; i <= spec.N; i++ {
		id := neko.ProcessID(i)
		stack := neko.NewStack(cluster.Context(id))
		if i == 1 {
			sender.ctx = stack.Context()
			stack.AddLayer(sender)
		}
		stack.Handle(neko.PayloadProbe, arrive)
		cluster.Attach(id, stack)
	}
	cluster.Start()
	// The probe timer chain suffers scheduler lateness (grid deferrals can
	// add several ms per wake-up); budget generously so every probe fires.
	deadline := float64(float64(spec.Count)*(probeGap+8)) + 100
	cluster.RunUntil(deadline)

	want := 1
	if spec.Broadcast {
		want = spec.N - 1
	}
	var out []float64
	for seq := 0; seq < spec.Count; seq++ {
		if gotCount[seq] == want {
			out = append(out, sumDelay[seq]/float64(want))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: no probes delivered")
	}
	return out, nil
}
