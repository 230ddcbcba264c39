package chat

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/mda"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Config parameterizes one chat workload.
type Config struct {
	// Participants is the group size (>= 2).
	Participants int
	// MessagesEach is how many utterances each participant submits.
	MessagesEach int
	// Spread is the window over which utterances are scheduled.
	Spread time.Duration
	// Latency, Jitter and LossRate configure the network links.
	Latency  time.Duration
	Jitter   time.Duration
	LossRate float64
	// Seed fixes the run.
	Seed int64
	// Platform, when non-empty, deploys the chat PIM on that concrete
	// platform (MDA path) instead of the hand-built sequencer protocol.
	Platform string
	// Trace, when non-nil, receives every observed service primitive in
	// order. Nil keeps no trace.
	Trace *core.Trace
}

func (c *Config) applyDefaults() {
	if c.Participants < 2 {
		c.Participants = 3
	}
	if c.MessagesEach <= 0 {
		c.MessagesEach = 4
	}
	if c.Spread <= 0 {
		c.Spread = 50 * time.Millisecond
	}
	if c.Latency <= 0 {
		c.Latency = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result reports one chat run.
type Result struct {
	Said           int
	Delivered      int
	PerParticipant map[string]int
	// DeliveryLatency measures say→own-delivery.
	DeliveryLatency metrics.Histogram
	NetMessages     uint64
	NetDropped      uint64
	ConformanceErr  error
}

// Run executes the ordered-chat service under load and verifies it
// against Spec. With cfg.Platform set, the PIM is deployed through the
// MDA trajectory; otherwise the sequencer protocol runs directly.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()
	kernel := sim.NewKernel(sim.WithSeed(cfg.Seed))
	net := network.New(kernel, network.WithDefaultLink(network.LinkConfig{
		Latency:  cfg.Latency,
		Jitter:   cfg.Jitter,
		LossRate: cfg.LossRate,
	}))
	// The retransmission timer is sized to the configured link latency
	// (a few RTTs) so loss recovery does not dwarf delivery latency.
	lower := protocol.NewReliableDatagram(kernel, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{
		RetransmitTimeout: 4 * (cfg.Latency + cfg.Jitter),
	})

	participants := make([]string, cfg.Participants)
	saps := make([]core.SAP, cfg.Participants)
	for i := range participants {
		participants[i] = fmt.Sprintf("p%d", i+1)
		saps[i] = ParticipantSAP(participants[i])
	}

	var provider core.Provider
	if cfg.Platform != "" {
		target, ok := mda.ConcretePlatformByName(cfg.Platform)
		if !ok {
			return nil, fmt.Errorf("chat: unknown platform %q", cfg.Platform)
		}
		dep, err := mda.Deploy(kernel, lower, PIM(), target, mda.Plan{SAPs: saps})
		if err != nil {
			return nil, fmt.Errorf("chat: deploy: %w", err)
		}
		provider = dep
	} else {
		binding, _, err := BuildProtocol(kernel, lower, participants)
		if err != nil {
			return nil, err
		}
		provider = binding
	}

	var obsOpts []core.ObserverOption
	if cfg.Trace != nil {
		obsOpts = append(obsOpts, core.WithTrace(cfg.Trace))
	}
	observer, err := core.NewObserver(runSpec, kernel, obsOpts...)
	if err != nil {
		return nil, err
	}
	observed := observer.Provider(provider)

	res := &Result{PerParticipant: make(map[string]int, cfg.Participants)}
	saidAt := make(map[string]time.Duration)
	for i, sap := range saps {
		sap := sap
		pid := participants[i]
		observed.Attach(sap, func(prim string, params []byte) {
			if prim != PrimDeliver {
				return
			}
			res.Delivered++
			res.PerParticipant[sap.ID]++
			var sl codec.Slots
			_ = recOrdered.ParseRecord(params, &sl) //nolint:errcheck // a malformed record reads as empty fields
			id, _ := sl.StrAt(slotMsgID)
			speaker, _ := sl.StrAt(slotSpeaker)
			if string(speaker) == sap.ID {
				if t0, ok := saidAt[string(id)]; ok {
					res.DeliveryLatency.Add(kernel.Now() - t0)
				}
			}
		})
		for m := 0; m < cfg.MessagesEach; m++ {
			m := m
			kernel.ScheduleFunc(time.Duration(kernel.Rand().Int63n(int64(cfg.Spread))), func() {
				id := fmt.Sprintf("%s-%d", pid, m)
				saidAt[id] = kernel.Now()
				e := saySchema.Encoder(nil)
				e.Str(ParamMsgID, id)
				e.Str(ParamText, fmt.Sprintf("hello %d from %s", m, pid))
				params, err := e.Finish()
				if err == nil {
					err = observed.Submit(sap, PrimSay, params)
				}
				if err != nil {
					panic(fmt.Sprintf("chat: say: %v", err))
				}
				res.Said++
			})
		}
	}

	if _, err := kernel.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
		return nil, err
	}
	res.ConformanceErr = observer.Complete()
	st := net.Stats()
	res.NetMessages = st.Sent
	res.NetDropped = st.Dropped
	return res, nil
}
