package floorcontrol

import (
	"fmt"
	"strings"
	"time"
)

// AllSolutionNames returns the identifiers of every floor-control
// implementation in paper order: the six Figure 4/6 solutions followed by
// the four MDA trajectory solutions.
func AllSolutionNames() []string {
	names := make([]string, 0, 10)
	for _, s := range Solutions() {
		names = append(names, s.Name())
	}
	for _, m := range MDASolutions() {
		names = append(names, m.Name())
	}
	return names
}

// ScenarioID renders a stable identifier for the workload the Config
// describes, suitable as a sweep-scenario key. The core
// solution/size/loss tuple always appears; every other parameter appears
// only when its effective (post-default) value deviates from the default,
// so an explicitly-set default yields the same ID — and hence the same
// derived seed — as an unset field, and any two Configs describing
// different workloads get distinct IDs (middleware profiles are keyed by
// Profile.Name; two custom profiles sharing a name collide). The Seed is
// deliberately excluded: the sweep runner derives each scenario's seed
// from this ID.
func (c Config) ScenarioID() string {
	d := c
	d.applyDefaults()
	var def Config
	def.applyDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/subs=%d/res=%d/cycles=%d/loss=%g", d.Solution, d.Subscribers, d.Resources, d.Cycles, d.LossRate)
	if d.ThinkTime != def.ThinkTime {
		fmt.Fprintf(&sb, "/think=%s", d.ThinkTime)
	}
	if d.HoldTime != def.HoldTime {
		fmt.Fprintf(&sb, "/hold=%s", d.HoldTime)
	}
	if d.PollInterval != def.PollInterval {
		fmt.Fprintf(&sb, "/poll=%s", d.PollInterval)
	}
	if d.TokenHopDelay != def.TokenHopDelay {
		fmt.Fprintf(&sb, "/hop=%s", d.TokenHopDelay)
	}
	if d.Latency != def.Latency {
		fmt.Fprintf(&sb, "/lat=%s", d.Latency)
	}
	if d.Deadline != def.Deadline {
		fmt.Fprintf(&sb, "/deadline=%s", d.Deadline)
	}
	if d.Profile.Name != def.Profile.Name {
		fmt.Fprintf(&sb, "/profile=%s", d.Profile.Name)
	}
	if d.RawTransport {
		sb.WriteString("/raw")
	}
	// Churn parameters are workload identity: a different crash rate or
	// MTTR is a different experiment and must fork the scenario ID (and
	// hence the derived seed and the fault schedule).
	if d.CrashRate > 0 {
		fmt.Fprintf(&sb, "/crash=%g/mttr=%s", d.CrashRate, d.MTTR)
		if d.RebindPolicy != RebindNone {
			fmt.Fprintf(&sb, "/rebind=%s", d.RebindPolicy)
		}
		if d.AcquireTimeout != time.Second {
			fmt.Fprintf(&sb, "/acqto=%s", d.AcquireTimeout)
		}
	}
	return sb.String()
}

// Params returns the workload parameters as labelled strings for sweep
// reporting (CSV columns, JSON fields).
func (c Config) Params() map[string]string {
	d := c
	d.applyDefaults()
	p := map[string]string{
		"solution":    d.Solution,
		"subscribers": fmt.Sprintf("%d", d.Subscribers),
		"resources":   fmt.Sprintf("%d", d.Resources),
		"cycles":      fmt.Sprintf("%d", d.Cycles),
		"loss":        fmt.Sprintf("%g", d.LossRate),
	}
	if d.CrashRate > 0 {
		p["crash_rate"] = fmt.Sprintf("%g", d.CrashRate)
		p["mttr"] = d.MTTR.String()
		p["rebind"] = d.RebindPolicy
	}
	return p
}

// Summary flattens the Result into named numeric measurements — the
// aggregation unit of a scenario sweep. Keys are stable; values are
// deterministic functions of the Config (never wall-clock).
func (r *Result) Summary() map[string]float64 {
	conforms := 1.0
	if r.ConformanceErr != nil {
		conforms = 0
	}
	m := map[string]float64{
		"completed":       float64(r.Completed),
		"expected":        float64(r.Expected),
		"net_msgs":        float64(r.NetMessages),
		"net_bytes":       float64(r.NetBytes),
		"paradigm_msgs":   float64(r.ParadigmMessages),
		"kernel_events":   float64(r.KernelEvents),
		"acquire_mean_us": float64(r.AcquireLatency.Mean()) / float64(time.Microsecond),
		"acquire_p95_us":  float64(r.AcquireLatency.P95()) / float64(time.Microsecond),
		"fairness":        r.FairnessIndex,
		"virtual_ms":      float64(r.VirtualDuration) / float64(time.Millisecond),
		"conforms":        conforms,
	}
	if r.Churn {
		safetyOK := 0.0
		if r.SafetyOK {
			safetyOK = 1
		}
		m["offered"] = float64(r.Offered)
		m["served"] = float64(r.Served)
		m["availability"] = r.Availability
		m["crashes"] = float64(r.Crashes)
		m["safety_ok"] = safetyOK
	}
	return m
}

// SummaryLine renders the one-line human-readable form of the Result used
// as a sweep scenario's text artifact.
func (r *Result) SummaryLine() string {
	conf := "conforms"
	if r.ConformanceErr != nil {
		conf = "VIOLATION: " + r.ConformanceErr.Error()
	}
	line := fmt.Sprintf("%s [%s/%s]: %d/%d cycles, %d net msgs, %d bytes, acquire mean %s p95 %s, fairness %.3f, %s",
		r.Solution, r.Paradigm, r.Style,
		r.Completed, r.Expected, r.NetMessages, r.NetBytes,
		r.AcquireLatency.Mean().Round(10*time.Microsecond),
		r.AcquireLatency.P95().Round(10*time.Microsecond),
		r.FairnessIndex, conf)
	if r.Churn {
		safety := "safety ok"
		if !r.SafetyOK {
			safety = fmt.Sprintf("SAFETY VIOLATIONS: %d", r.SafetyViolations)
		}
		line += fmt.Sprintf(", churn: %d/%d served (availability %.3f), %d crashes, %s",
			r.Served, r.Offered, r.Availability, r.Crashes, safety)
	}
	return line
}
