package sim

import (
	"slimfly/internal/metrics"
)

// Run constructs a fresh simulator for cfg, executes it and returns the
// measurements. It is a pure entry point: every call builds its own
// simulator state (queues, credit ring, RNG), and the shared inputs it reads --
// topology, routing tables, traffic patterns -- are immutable after
// construction, so any number of Runs over the same inputs may proceed
// concurrently. The sweep engine (internal/sweep) relies on this to fan
// simulations out across cores.
func Run(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}

// RunSummary is Run plus the structured metrics summary of the collectors
// named by cfg.Metrics (nil when none are configured). Like Run it builds
// private state per call and is safe to fan out concurrently.
func RunSummary(cfg Config) (Result, *metrics.Summary, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	res := s.Run()
	return res, s.MetricsSummary(), nil
}
