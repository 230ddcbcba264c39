package fanout

import (
	"fmt"
	"time"
)

// ScenarioID renders the canonical scenario identifier for the config.
// The Seed is excluded: the sweep runner derives each scenario's seed
// from this ID.
func (c Config) ScenarioID() string {
	d := c
	d.applyDefaults()
	return fmt.Sprintf("fanout/subs=%d/nodes=%d/leaves=%d/events=%d/payload=%d",
		d.Subscribers, d.Nodes, d.Leaves, d.Events, d.PayloadBytes)
}

// Params returns the descriptive parameter labels carried into sweep
// reports.
func (c Config) Params() map[string]string {
	d := c
	d.applyDefaults()
	return map[string]string{
		"workload":    "fanout",
		"subscribers": fmt.Sprintf("%d", d.Subscribers),
		"nodes":       fmt.Sprintf("%d", d.Nodes),
		"leaves":      fmt.Sprintf("%d", d.Leaves),
		"events":      fmt.Sprintf("%d", d.Events),
		"payload":     fmt.Sprintf("%d", d.PayloadBytes),
	}
}

// Summary flattens the Result into named numeric measurements, the
// aggregation unit of a scenario sweep. Keys are stable; values are
// deterministic functions of the Config.
func (r *Result) Summary() map[string]float64 {
	return map[string]float64{
		"delivered":        float64(r.Delivered),
		"expected":         float64(r.Expected),
		"wire_msgs":        float64(r.WireMessages),
		"wire_bytes":       float64(r.WireBytes),
		"net_msgs":         float64(r.NetMessages),
		"net_bytes":        float64(r.NetBytes),
		"kernel_events":    float64(r.KernelEvents),
		"bytes_per_client": r.BytesPerClient,
		"deliver_mean_us":  float64(r.Latency.Mean()) / float64(time.Microsecond),
		"deliver_p99_us":   float64(r.Latency.P99()) / float64(time.Microsecond),
		"virtual_ms":       float64(r.VirtualDuration) / float64(time.Millisecond),
	}
}

// SummaryLine renders the one-line human-readable form of the Result.
func (r *Result) SummaryLine() string {
	return fmt.Sprintf("fanout: %d/%d deliveries, %d wire msgs, %d net bytes (%.1f B/client), deliver mean %s p99 %s",
		r.Delivered, r.Expected, r.WireMessages, r.NetBytes, r.BytesPerClient,
		r.Latency.Mean().Round(10*time.Microsecond),
		r.Latency.P99().Round(10*time.Microsecond))
}
