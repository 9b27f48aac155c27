package sweep

import "slimfly/internal/scenario"

// Env resolves declarative jobs into runnable simulator configurations,
// memoising topology construction, routing-table builds (including the
// port-indexed next-hop tables the simulator hot path runs on, so the
// expensive all-pairs build happens once per network and is shared across
// every load, seed and worker of a sweep) and adversarial-pattern
// derivation. It is scenario.Env: the same resolver the CLI tools and the
// experiment suite use.
type Env = scenario.Env

// NewEnv returns an empty resolver environment. Options (e.g.
// scenario.WithRouteBackend) select the routing-backend policy the Env
// resolves topologies under.
func NewEnv(opts ...scenario.EnvOption) *Env { return scenario.NewEnv(opts...) }
