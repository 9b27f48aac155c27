package sim

import (
	"slimfly/internal/metrics"
)

// RunSummary constructs a fresh simulator for cfg, executes it and returns
// the measurements plus the structured metrics summary of the collectors
// named by cfg.Metrics (nil when none are configured). It is the engine's
// one run entry point, and a pure one: every call builds its own simulator
// state (queues, credit ring, RNG), and the shared inputs it reads --
// topology, routing tables, traffic patterns -- are immutable after
// construction, so any number of calls over the same inputs may proceed
// concurrently. The sweep engine (internal/sweep) relies on this to fan
// simulations out across cores.
func RunSummary(cfg Config) (Result, *metrics.Summary, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	res := s.Run()
	return res, s.MetricsSummary(), nil
}
