package routeflow

import (
	"net/netip"
	"time"

	"routeflow/internal/clock"
	"routeflow/internal/cluster"
	"routeflow/internal/core"
	"routeflow/internal/vnet"
)

// Cluster types (distributed RF-controller).
type (
	// ClusterSpec sizes the distributed RF-controller: replica count, shard
	// policy and lease timings. The zero value (or Replicas ≤ 1) is the
	// paper's single rf-server.
	ClusterSpec = core.ClusterSpec
	// Replica is the public handle of one rf-controller replica.
	Replica = core.Replica
	// ShardPolicy names a shard→replica assignment policy.
	ShardPolicy = cluster.Policy
)

// ShardPolicyModulo assigns shard s to the (s mod n)-th live replica — the
// default static-partitioning policy.
const ShardPolicyModulo = cluster.PolicyModulo

// Option configures a Deployment built by New. Options compose left to
// right; later options override earlier ones.
type Option func(*Options)

// New assembles an automatic-configuration system for a topology; call
// Start on the returned deployment to run it.
//
//	d, err := routeflow.New(routeflow.Ring(4),
//	        routeflow.WithTimeScale(50),
//	        routeflow.WithHosts(0, 2),
//	        routeflow.WithReplicas(3))
//
// Every Options field has a corresponding With* option, and new knobs are
// added as options here without widening a struct literal.
func New(g *Topology, opts ...Option) (*Deployment, error) {
	o := Options{Topology: g}
	for _, opt := range opts {
		opt(&o)
	}
	return core.NewDeployment(o)
}

// WithClock drives every timer from clk (see ScaledClock, SystemClock).
func WithClock(clk clock.Clock) Option { return func(o *Options) { o.Clock = clk } }

// WithTimeScale runs protocol time factor× faster than wall time — the
// ScaledClock shorthand used by every experiment.
func WithTimeScale(factor float64) Option {
	return func(o *Options) { o.Clock = ScaledClock(factor) }
}

// WithPool sets the administrator's IP range for the virtual environment
// (default 172.16.0.0/16).
func WithPool(p netip.Prefix) Option { return func(o *Options) { o.Pool = p } }

// WithHosts attaches an end host to each listed graph node.
func WithHosts(nodes ...int) Option { return func(o *Options) { o.HostNodes = nodes } }

// WithBootDelay models VM creation time.
func WithBootDelay(d time.Duration) Option { return func(o *Options) { o.BootDelay = d } }

// WithTimers sets the routing daemons' protocol timers.
func WithTimers(t Timers) Option { return func(o *Options) { o.Timers = t } }

// WithProbeInterval sets the LLDP discovery probe period.
func WithProbeInterval(d time.Duration) Option { return func(o *Options) { o.ProbeInterval = d } }

// WithLinkTTL sets how long a discovered link survives without a probe.
func WithLinkTTL(d time.Duration) Option { return func(o *Options) { o.LinkTTL = d } }

// WithOnStatus observes per-switch configuration state (wire a Dashboard's
// Update here).
func WithOnStatus(fn func(dpid uint64, state VMState)) Option {
	return func(o *Options) { o.OnStatus = func(dpid uint64, st vnet.State) { fn(dpid, st) } }
}

// WithRPCDropRate injects reproducible control-channel loss: each RPC frame
// is dropped (and its connection cut) with probability rate, seeded for
// determinism.
func WithRPCDropRate(rate float64, seed int64) Option {
	return func(o *Options) { o.RPCDropRate = rate; o.RPCDropSeed = seed }
}

// WithResyncProbe overrides the reconciler's idle epoch-probe period.
func WithResyncProbe(d time.Duration) Option { return func(o *Options) { o.ResyncProbe = d } }

// WithCluster runs the distributed RF-controller: spec.Replicas instances
// with sharded per-switch ownership and lease-based failover.
func WithCluster(spec ClusterSpec) Option { return func(o *Options) { o.Cluster = spec } }

// WithReplicas is the WithCluster shorthand for "n replicas, default shard
// policy and lease timings".
func WithReplicas(n int) Option {
	return func(o *Options) { o.Cluster = ClusterSpec{Replicas: n} }
}

// WithRPCApplyDelay models the per-message work of the paper's RPC server
// (VM cloning, config-file writes) inside each replica's apply lock — the
// serialized cost that sharding the switch population divides.
func WithRPCApplyDelay(d time.Duration) Option { return func(o *Options) { o.RPCApplyDelay = d } }
