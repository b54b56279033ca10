// Package testbed simulates the paper's experimental MediaWiki cluster
// (Section V-B, Figures 11–13): two 3-tier web applications — Apache
// front-ends, memcached, MySQL — hosted as VMs on three physical
// nodes, driven by a load generator alternating hourly between low and
// high intensity. Each VM is modelled as a processor-sharing queue
// whose capacity is its cgroup CPU limit; node capacity caps the sum
// of co-located VMs' delivered CPU. The simulation reports per-VM
// utilization (Figure 12) and per-application response time and
// throughput (Figure 13), and lets an ATM controller resize limits
// on the fly through the actuator API.
//
// The substitution is behaviour-preserving for the paper's claims: the
// testbed experiment demonstrates that raising hot VMs' limits (and
// shrinking cold ones) keeps utilization-percent under the ticket
// threshold while sustaining throughput — exactly the mechanism a
// capacity-constrained queueing model reproduces.
package testbed

import (
	"fmt"

	"atm/internal/actuator"
)

// Tier identifies a 3-tier web application layer.
type Tier int

// The MediaWiki stack's tiers.
const (
	TierApache Tier = iota
	TierMemcached
	TierDB
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierApache:
		return "apache"
	case TierMemcached:
		return "memcached"
	case TierDB:
		return "mysql"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// SimVM is one simulated virtual machine.
type SimVM struct {
	// ID is unique within the cluster (also the cgroup name).
	ID string
	// App is the owning application (e.g. "wiki-one").
	App string
	// Tier is the VM's role in the 3-tier stack.
	Tier Tier
	// Node is the hosting physical machine's ID.
	Node string
	// DefaultLimitGHz is the initial cgroup CPU limit (2 vCPUs in the
	// paper's testbed).
	DefaultLimitGHz float64
}

// Node is a simulated physical machine.
type Node struct {
	// ID names the node.
	ID string
	// CapacityGHz is the total CPU the node can deliver.
	CapacityGHz float64
}

// Workload is an application's offered load pattern: the paper's
// generator alternates between low and high intensity, each phase
// lasting one hour.
type Workload struct {
	// LowRPS and HighRPS are the offered request rates per phase.
	LowRPS, HighRPS float64
	// PhaseWindows is the phase length in simulation windows.
	PhaseWindows int
}

// Rate returns the offered request rate for a window index (low
// phases first).
func (w Workload) Rate(window int) float64 {
	if (window/w.PhaseWindows)%2 == 0 {
		return w.LowRPS
	}
	return w.HighRPS
}

// AppSpec describes one 3-tier application's demand profile.
type AppSpec struct {
	// Name identifies the application.
	Name string
	// Load is the offered workload pattern.
	Load Workload
	// ApacheCost, MemcachedCost and DBCost are per-request CPU
	// demands in GHz-seconds at each tier.
	ApacheCost, MemcachedCost, DBCost float64
	// ApacheService, MemcachedService and DBService are base service
	// times in seconds (the no-contention response time contribution).
	ApacheService, MemcachedService, DBService float64
	// CacheHitRatio is the memcached hit probability; misses continue
	// to the database.
	CacheHitRatio float64
}

// Cluster is a runnable testbed instance.
type Cluster struct {
	// Nodes are the physical machines.
	Nodes []Node
	// VMs are all virtual machines across applications.
	VMs []SimVM
	// Apps maps application name to its spec.
	Apps map[string]*AppSpec
	// Limits is the live cgroup tree; the simulation reads each VM's
	// CPU limit from it every window, so an external controller can
	// resize on the fly.
	Limits *actuator.Registry
	// LBWeights optionally skews front-end load balancing: VM ID →
	// relative weight (default 1).
	LBWeights map[string]float64
	// WindowSec is the ticketing/monitoring window length in seconds.
	WindowSec int
	// Seed drives the load generator's noise.
	Seed int64
}

// DefaultTopology builds the paper's Figure 11 testbed: wiki-one with
// 4 Apache + 2 memcached + 1 DB, wiki-two with 2 Apache + 1 memcached
// + 1 DB, spread over three 14.4 GHz nodes (4 cores @ 3.6 GHz); every
// VM starts with a 7.2 GHz limit (2 vCPUs @ 3.6 GHz). The fourth
// server is the orchestrator/load generator and is not simulated.
//
// The demand parameters are tuned so that, under default limits, the
// high-intensity phase (a) pushes wiki-one's two busiest Apaches and
// its database just past the 60% ticket threshold, and (b) saturates
// wiki-two's Apaches at their cgroup limit, capping its throughput —
// the two failure modes the paper's resizing experiment fixes. Each
// node retains physical headroom, so resizing (raising hot limits,
// shrinking cold ones) can eliminate both.
func DefaultTopology() *Cluster {
	const (
		coreGHz = 3.6
		vmLimit = 2 * coreGHz
		nodeCap = 4 * coreGHz
	)
	c := &Cluster{
		Nodes: []Node{
			{ID: "node2", CapacityGHz: nodeCap},
			{ID: "node3", CapacityGHz: nodeCap},
			{ID: "node4", CapacityGHz: nodeCap},
		},
		Apps: map[string]*AppSpec{
			"wiki-one": {
				Name: "wiki-one",
				Load: Workload{LowRPS: 14, HighRPS: 34, PhaseWindows: 4},
				// Per-request CPU (GHz·s) per tier; memcached absorbs
				// 80% of reads so the DB sees only misses.
				ApacheCost: 0.5, MemcachedCost: 0.065, DBCost: 0.63,
				ApacheService: 0.2, MemcachedService: 0.004, DBService: 0.25,
				CacheHitRatio: 0.8,
			},
			"wiki-two": {
				Name: "wiki-two",
				// wiki-two's high phase demands ~10 GHz per Apache —
				// well past the default 7.2 GHz limit.
				Load:       Workload{LowRPS: 7, HighRPS: 20, PhaseWindows: 4},
				ApacheCost: 1.0, MemcachedCost: 0.045, DBCost: 0.45,
				ApacheService: 0.18, MemcachedService: 0.005, DBService: 0.3,
				CacheHitRatio: 0.75,
			},
		},
		Limits: actuator.NewRegistry(),
		LBWeights: map[string]float64{
			// wiki-one's balancer favors its first two Apaches,
			// concentrating tickets on culprit VMs.
			"wiki-one-apache-1": 1.45,
			"wiki-one-apache-2": 1.45,
			"wiki-one-apache-3": 1.05,
			"wiki-one-apache-4": 1.05,
		},
		WindowSec: 900, // the paper's 15-minute ticketing window
		Seed:      1,
	}
	add := func(app string, tier Tier, node string, n *int) {
		id := fmt.Sprintf("%s-%s-%d", app, tier, *n)
		*n++
		c.VMs = append(c.VMs, SimVM{ID: id, App: app, Tier: tier, Node: node, DefaultLimitGHz: vmLimit})
	}
	// Hot VMs are spread so every node keeps physical headroom:
	//   node2: wiki-two apache 1 (saturating), wiki-one apache 3
	//          (cool), wiki-one memcached 1, wiki-two memcached
	//   node3: wiki-two apache 2, wiki-one apache 4, wiki-one
	//          memcached 2, wiki-two DB
	//   node4: wiki-one apaches 1+2 (hot) and the wiki-one DB
	n := 1
	add("wiki-one", TierApache, "node4", &n)
	add("wiki-one", TierApache, "node4", &n)
	add("wiki-one", TierApache, "node2", &n)
	add("wiki-one", TierApache, "node3", &n)
	n = 1
	add("wiki-one", TierMemcached, "node2", &n)
	add("wiki-one", TierMemcached, "node3", &n)
	n = 1
	add("wiki-one", TierDB, "node4", &n)
	n = 1
	add("wiki-two", TierApache, "node2", &n)
	add("wiki-two", TierApache, "node3", &n)
	n = 1
	add("wiki-two", TierMemcached, "node2", &n)
	n = 1
	add("wiki-two", TierDB, "node3", &n)

	c.ResetLimits()
	return c
}

// ResetLimits restores every VM's cgroup to its default limit.
func (c *Cluster) ResetLimits() {
	for _, vm := range c.VMs {
		// RAM is not part of the CPU experiment; carry a nominal 4 GB.
		if err := c.Limits.Set(vm.ID, actuator.Limits{CPUGHz: vm.DefaultLimitGHz, RAMGB: 4}); err != nil {
			panic(fmt.Sprintf("testbed: reset %s: %v", vm.ID, err))
		}
	}
}

// VMsOnNode returns the indices (into c.VMs) of the node's VMs.
func (c *Cluster) VMsOnNode(id string) []int {
	var out []int
	for i := range c.VMs {
		if c.VMs[i].Node == id {
			out = append(out, i)
		}
	}
	return out
}
