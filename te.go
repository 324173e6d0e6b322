package routeflow

import "routeflow/internal/te"

// Traffic-engineering types (online re-optimization over telemetry).
//
// With WithTrafficEngineering enabled, the deployment runs an optimization
// loop over the telemetry utilization view: links loaded above a headroom
// threshold shed their largest movable host-pair flows onto colder
// equal-cost paths. A move is realized as pinned flow entries pushed
// through each master replica's desired-state discipline, so migrations
// survive reconnects and failover like any other configured state, and the
// telemetry program re-baselines under a bumped epoch so counters stay
// exactly-once across the path change.
type (
	// TEMove is one decided migration: the pair re-pinned from one walk to
	// another.
	TEMove = te.Move
)

// WithTrafficEngineering enables the online TE loop with default tuning.
// Implies WithTelemetry — the optimizer's input is the telemetry view.
func WithTrafficEngineering() Option { return func(o *Options) { o.TE = true } }
