package testbed

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"atm/internal/actuator"
	"atm/internal/predict"
	"atm/internal/timeseries"
)

const testWindows = 24 // 6 hours of 15-minute windows, 3 low/high cycles

func TestDefaultTopologyShape(t *testing.T) {
	c := DefaultTopology()
	if len(c.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(c.Nodes))
	}
	if len(c.VMs) != 11 {
		t.Fatalf("VMs = %d, want 11 (4+2+1 wiki-one, 2+1+1 wiki-two)", len(c.VMs))
	}
	counts := map[string]map[Tier]int{}
	for _, vm := range c.VMs {
		if counts[vm.App] == nil {
			counts[vm.App] = map[Tier]int{}
		}
		counts[vm.App][vm.Tier]++
		if i := slices.IndexFunc(c.Nodes, func(n Node) bool { return n.ID == vm.Node }); i < 0 || c.Nodes[i].CapacityGHz <= 0 {
			t.Errorf("vm %s on unknown node %s", vm.ID, vm.Node)
		}
		l, err := c.Limits.Get(vm.ID)
		if err != nil {
			t.Errorf("vm %s has no initial limits: %v", vm.ID, err)
		} else if l.CPUGHz != vm.DefaultLimitGHz {
			t.Errorf("vm %s limit = %v, want default %v", vm.ID, l.CPUGHz, vm.DefaultLimitGHz)
		}
	}
	w1 := counts["wiki-one"]
	if w1[TierApache] != 4 || w1[TierMemcached] != 2 || w1[TierDB] != 1 {
		t.Errorf("wiki-one tiers = %v, want 4/2/1", w1)
	}
	w2 := counts["wiki-two"]
	if w2[TierApache] != 2 || w2[TierMemcached] != 1 || w2[TierDB] != 1 {
		t.Errorf("wiki-two tiers = %v, want 2/1/1", w2)
	}
}

func TestWorkloadRate(t *testing.T) {
	w := Workload{LowRPS: 5, HighRPS: 15, PhaseWindows: 4}
	for i := 0; i < 4; i++ {
		if w.Rate(i) != 5 {
			t.Errorf("window %d rate = %v, want low", i, w.Rate(i))
		}
		if w.Rate(i+4) != 15 {
			t.Errorf("window %d rate = %v, want high", i+4, w.Rate(i+4))
		}
	}
}

func TestRunStaticBaseline(t *testing.T) {
	c := DefaultTopology()
	m, err := c.Run(testWindows, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Sanity: usage within [0, 100], RT positive, served <= offered.
	for id, u := range m.Usage {
		for w, v := range u {
			if v < 0 || v > 100+1e-9 || math.IsNaN(v) {
				t.Fatalf("%s usage[%d] = %v", id, w, v)
			}
		}
	}
	for app := range c.Apps {
		for w := 0; w < testWindows; w++ {
			if m.RT[app][w] <= 0 {
				t.Fatalf("%s RT[%d] = %v", app, w, m.RT[app][w])
			}
			if m.Served[app][w] > m.Offered[app][w]+1e-9 {
				t.Fatalf("%s served > offered at %d", app, w)
			}
		}
	}
	// The default topology must generate a meaningful number of
	// baseline tickets (the paper's run saw 49 over five hours).
	tickets := m.Tickets(0, testWindows, 0.6)
	if tickets < 20 {
		t.Errorf("baseline tickets = %d, want >= 20", tickets)
	}
	// wiki-two saturates during high phases: served visibly below
	// offered.
	highServed := m.Served["wiki-two"][5]
	highOffered := m.Offered["wiki-two"][5]
	if highServed > 0.9*highOffered {
		t.Errorf("wiki-two not saturated at high phase: %v of %v", highServed, highOffered)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := DefaultTopology().Run(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultTopology().Run(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := range a.Usage {
		for w := range a.Usage[id] {
			if a.Usage[id][w] != b.Usage[id][w] {
				t.Fatalf("nondeterministic usage for %s at %d", id, w)
			}
		}
	}
}

func TestRunRejectsBadWindows(t *testing.T) {
	if _, err := DefaultTopology().Run(0, nil); err == nil {
		t.Error("zero windows accepted")
	}
}

// TestATMControllerReducesTickets reproduces the Figure 12 shape: with
// the ATM controller resizing limits, post-training tickets drop
// dramatically versus the static run, and wiki-two's throughput rises
// (Figure 13) because its saturated Apaches get uncapped.
func TestATMControllerReducesTickets(t *testing.T) {
	static, err := DefaultTopology().Run(testWindows, nil)
	if err != nil {
		t.Fatalf("static run: %v", err)
	}

	c := DefaultTopology()
	ctrl := NewDefaultController(c.Limits)
	managed, err := c.Run(testWindows, ctrl)
	if err != nil {
		t.Fatalf("managed run: %v", err)
	}
	if ctrl.Resizes == 0 {
		t.Fatal("controller never resized")
	}

	// Compare after the controller's training prefix.
	from := ctrl.TrainWindows + ctrl.ResizeEvery // allow one adaptation round
	before := static.Tickets(from, testWindows, 0.6)
	after := managed.Tickets(from, testWindows, 0.6)
	if before < 10 {
		t.Fatalf("static run only produced %d comparable tickets", before)
	}
	if float64(after) > 0.25*float64(before) {
		t.Errorf("tickets before=%d after=%d; want >= 75%% reduction", before, after)
	}

	// Figure 13 shape: wiki-two throughput up, wiki-one RT down.
	tputBefore := static.MeanServed("wiki-two", from, testWindows)
	tputAfter := managed.MeanServed("wiki-two", from, testWindows)
	if tputAfter < 1.1*tputBefore {
		t.Errorf("wiki-two throughput %v -> %v; want > +10%%", tputBefore, tputAfter)
	}
	rtBefore := static.MeanRT("wiki-one", from, testWindows)
	rtAfter := managed.MeanRT("wiki-one", from, testWindows)
	if rtAfter > rtBefore {
		t.Errorf("wiki-one RT %v -> %v; want improvement", rtBefore, rtAfter)
	}
}

// TestATMControllerOverHTTP drives the same loop through the actuator
// daemon's HTTP API, the paper's deployment shape.
func TestATMControllerOverHTTP(t *testing.T) {
	c := DefaultTopology()
	srv := httptest.NewServer(c.Limits.Handler())
	defer srv.Close()
	client, err := actuator.NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	ctrl := NewDefaultController(client)
	m, err := c.Run(16, ctrl)
	if err != nil {
		t.Fatalf("Run over HTTP: %v", err)
	}
	if ctrl.Resizes == 0 {
		t.Fatal("controller never resized over HTTP")
	}
	// Limits must have actually changed from defaults for some VM.
	changed := false
	for _, vm := range c.VMs {
		l, err := client.GetLimits(context.Background(), vm.ID)
		if err != nil {
			t.Fatalf("GetLimits: %v", err)
		}
		if math.Abs(l.CPUGHz-vm.DefaultLimitGHz) > 1e-9 {
			changed = true
		}
	}
	if !changed {
		t.Error("no limit changed despite resizes")
	}
	_ = m
}

func TestTierString(t *testing.T) {
	if TierApache.String() != "apache" || TierMemcached.String() != "memcached" || TierDB.String() != "mysql" {
		t.Error("tier names wrong")
	}
	if Tier(9).String() == "" {
		t.Error("unknown tier empty")
	}
}

func TestVMsOnNode(t *testing.T) {
	c := DefaultTopology()
	seen := map[int]bool{}
	for _, n := range c.Nodes {
		for _, i := range c.VMsOnNode(n.ID) {
			if seen[i] {
				t.Fatalf("vm %d on two nodes", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(c.VMs) {
		t.Errorf("node partition covers %d of %d VMs", len(seen), len(c.VMs))
	}
	if got := c.VMsOnNode("nope"); got != nil {
		t.Errorf("unknown node VMs = %v", got)
	}
}

// failingActuator rejects every change, simulating a dead hypervisor
// daemon.
type failingActuator struct{}

func (failingActuator) SetLimits(_ context.Context, id string, _ actuator.Limits) error {
	return fmt.Errorf("daemon unreachable for %s", id)
}

func TestControllerActuationFailurePropagates(t *testing.T) {
	c := DefaultTopology()
	ctrl := NewDefaultController(failingActuator{})
	_, err := c.Run(16, ctrl)
	if err == nil || !strings.Contains(err.Error(), "daemon unreachable") {
		t.Fatalf("err = %v, want actuation failure", err)
	}
}

// brokenModel cannot forecast; the controller must surface the error.
type brokenModel struct{}

func (brokenModel) Name() string                            { return "broken" }
func (brokenModel) Fit(timeseries.Series) error             { return nil }
func (brokenModel) Forecast(int) (timeseries.Series, error) { return nil, fmt.Errorf("boom") }

func TestControllerForecastFailurePropagates(t *testing.T) {
	c := DefaultTopology()
	ctrl := NewDefaultController(c.Limits)
	ctrl.Temporal = func() predict.Model { return brokenModel{} }
	_, err := c.Run(16, ctrl)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want forecast failure", err)
	}
}
