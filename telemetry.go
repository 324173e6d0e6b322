package routeflow

import "routeflow/internal/telemetry"

// Telemetry types (streaming per-flow and per-link statistics).
//
// With WithTelemetry enabled, every switch exports delta-encoded counter
// batches for the flows it has been elected to monitor, and the deployment
// aggregates them into rolling views. Monitoring placement is balanced in
// the Floware style: each host-pair flow is observed at exactly one switch
// on its path, chosen to equalize per-switch monitoring load, and the
// program is recomputed whenever the topology changes.
type (
	// TelemetryStats is the deployment-wide aggregated view: per-flow and
	// per-link totals and windowed rates, in deterministic order. Obtain one
	// from Deployment.TelemetrySnapshot; in a cluster it is the merge of
	// every live replica's shard-local view.
	TelemetryStats = telemetry.Snapshot
	// FlowStat is one monitored flow's view: identity, observation point,
	// path, totals and windowed rates.
	FlowStat = telemetry.FlowStat
	// LinkStat is one link's utilization view, summed over every monitored
	// flow whose path crosses it.
	LinkStat = telemetry.LinkStat
	// FlowPlacement records where one host-pair flow is monitored: its path
	// and the elected observer switch (Monitor < 0 and a nil Path mean the
	// pair is partitioned and honestly unmonitored). Obtain the current
	// program from Deployment.TelemetryPlacements.
	FlowPlacement = telemetry.Placement
	// LinkKey names an undirected link by its ordered endpoint node IDs.
	LinkKey = telemetry.LinkKey
)

// MakeLinkKey builds the canonical (ordered) key for the link between two
// nodes, for indexing TelemetryStats.Links.
func MakeLinkKey(a, b int) LinkKey { return telemetry.MakeLinkKey(a, b) }

// WithTelemetry enables the streaming telemetry pipeline: balanced flow
// monitoring placement across the deployment's host pairs, per-switch
// counter export over the control channel, and rolling per-flow / per-link
// views served by Deployment.TelemetrySnapshot.
//
// The export path adds two atomic counter updates per burst and monitored
// flow to forwarding and allocates nothing per packet.
func WithTelemetry() Option { return func(o *Options) { o.Telemetry = true } }
