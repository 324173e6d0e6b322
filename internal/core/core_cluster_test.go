package core

import (
	"testing"
	"time"

	"routeflow/internal/topo"
)

// clusterOptions compresses the lease timers the way fastOptions compresses
// the protocol timers.
func clusterOptions(g *topo.Graph, replicas int, hostNodes ...int) Options {
	opts := fastOptions(g, hostNodes...)
	opts.Cluster = ClusterSpec{
		Replicas:   replicas,
		LeaseTTL:   300 * time.Millisecond,
		LeaseRenew: 100 * time.Millisecond,
	}
	return opts
}

func TestClusterValidation(t *testing.T) {
	g := topo.Ring(3)
	d, err := NewDeployment(fastOptions(g))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.KillReplica(0); err == nil {
		t.Fatal("KillReplica accepted on a single-controller deployment")
	}
	if err := d.SetReplicaPartitioned(0, true); err == nil {
		t.Fatal("SetReplicaPartitioned accepted on a single-controller deployment")
	}
	if d.NumReplicas() != 1 {
		t.Fatalf("NumReplicas = %d, want 1", d.NumReplicas())
	}
	if m := d.MasterOf(0); m != 0 {
		t.Fatalf("single-controller MasterOf = %d, want 0", m)
	}
}

func TestClusterShardsGroupByAS(t *testing.T) {
	// 2 ASes × 2 switches: the AS is the shard unit, so an iBGP mesh never
	// straddles replicas. Flat rings shard per switch.
	g := topo.ASRing(2, 2)
	d, err := NewDeployment(clusterOptions(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := len(d.shardDPIDs); got != 2 {
		t.Fatalf("AS ring produced %d shards, want 2", got)
	}
	for _, n := range g.Nodes() {
		a, b := d.shardOf[DPIDForNode(n.ID)], int(n.AS-g.Nodes()[0].AS)
		if a != b {
			t.Fatalf("node %d (AS %d) in shard %d, want %d", n.ID, n.AS, a, b)
		}
	}

	flat, err := NewDeployment(clusterOptions(topo.Ring(4), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if got := len(flat.shardDPIDs); got != 4 {
		t.Fatalf("flat ring produced %d shards, want 4", got)
	}
}

// TestClusteredRingConvergesAndFailsOver is the end-to-end mastership story:
// two replicas split a flat ring, the network converges, replica 1 is
// crash-killed, its leases lapse, its switches re-home to replica 0, and the
// network reconverges with traffic flowing.
func TestClusteredRingConvergesAndFailsOver(t *testing.T) {
	g := topo.Ring(4)
	d, err := NewDeployment(clusterOptions(g, 2, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Modulo policy: shard (= node, flat ring) i belongs to replica i%2.
	for node := 0; node < 4; node++ {
		if m := d.MasterOf(node); m != node%2 {
			t.Fatalf("node %d mastered by %d, want %d", node, m, node%2)
		}
	}
	if owned := d.Replicas()[1].Owned(); len(owned) != 2 {
		t.Fatalf("replica 1 owns %v, want 2 nodes", owned)
	}
	h0, _ := d.Host(0)
	h2, _ := d.Host(2)
	awaitPing := func(phase string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		var lastErr error
		for time.Now().Before(deadline) {
			if _, lastErr = h0.Ping(h2.Addr(), 2*time.Second); lastErr == nil {
				return
			}
		}
		t.Fatalf("no connectivity %s: %v", phase, lastErr)
	}
	awaitPing("before failover")

	if err := d.KillReplica(1); err != nil {
		t.Fatal(err)
	}
	if err := d.KillReplica(1); err == nil {
		t.Fatal("double kill accepted")
	}
	if err := d.KillReplica(0); err == nil {
		t.Fatal("killing the last live replica accepted")
	}
	if _, err := d.AwaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 4; node++ {
		if m := d.MasterOf(node); m != 0 {
			t.Fatalf("node %d mastered by %d after failover, want 0", node, m)
		}
	}
	if alive := d.Replicas()[1].Alive(); alive {
		t.Fatal("killed replica reports alive")
	}
	awaitPing("after failover")
}

// TestClusterPartitionAndHeal cuts replica 1 off from its switches and the
// coordination service: its leases lapse, it self-fences (releases its VMs),
// the survivor takes over, and after the heal the cooperative rebalance hands
// the shards back.
func TestClusterPartitionAndHeal(t *testing.T) {
	g := topo.Ring(4)
	d, err := NewDeployment(clusterOptions(g, 2, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := d.SetReplicaPartitioned(1, true); err != nil {
		t.Fatal(err)
	}
	if !d.Replicas()[1].Partitioned() {
		t.Fatal("replica 1 not marked partitioned")
	}
	if _, err := d.AwaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 4; node++ {
		if m := d.MasterOf(node); m != 0 {
			t.Fatalf("node %d mastered by %d under partition, want 0", node, m)
		}
	}

	if err := d.SetReplicaPartitioned(1, false); err != nil {
		t.Fatal(err)
	}
	// The heal must rebalance shards back to replica 1 and reconverge.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if d.MasterOf(1) == 1 && d.MasterOf(3) == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := d.MasterOf(1); m != 1 {
		t.Fatalf("node 1 mastered by %d after heal, want 1", m)
	}
	if _, err := d.AwaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	h0, _ := d.Host(0)
	h2, _ := d.Host(2)
	dl := time.Now().Add(15 * time.Second)
	var lastErr error
	for time.Now().Before(dl) {
		if _, lastErr = h0.Ping(h2.Addr(), 2*time.Second); lastErr == nil {
			return
		}
	}
	t.Fatalf("no connectivity after heal: %v", lastErr)
}

// TestClusteredMultiASConverges runs the inter-domain topology on three
// replicas: every AS's iBGP mesh lives on one platform, eBGP crosses
// platforms over the emulated data plane, and the cluster converges like the
// single controller does.
func TestClusteredMultiASConverges(t *testing.T) {
	g := topo.ASRing(3, 2)
	opts := clusterOptions(g, 3, 0, 5)
	d, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Shard s (= AS index s) on replica s%3 — with 3 shards and 3 replicas,
	// each AS has its own master.
	seen := map[int]bool{}
	for _, n := range g.Nodes() {
		m := d.MasterOf(n.ID)
		if m < 0 {
			t.Fatalf("node %d has no master", n.ID)
		}
		seen[m] = true
		for _, p := range g.Nodes() {
			if p.AS == n.AS && d.MasterOf(p.ID) != m {
				t.Fatalf("AS %d split across replicas %d and %d", n.AS, m, d.MasterOf(p.ID))
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("expected 3 masters in use, saw %v", seen)
	}
	h0, _ := d.Host(0)
	h5, _ := d.Host(5)
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if _, lastErr = h0.Ping(h5.Addr(), 2*time.Second); lastErr == nil {
			return
		}
	}
	t.Fatalf("no cross-AS connectivity: %v", lastErr)
}
