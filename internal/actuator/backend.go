package actuator

import "context"

// Capabilities describes what one actuation backend can do, so the
// layers above it — the transactional core.ApplyBox, the policy guard
// rails, the what-if planner — can adapt without type-switching on
// concrete backends. Honesty is contract-tested: the backend
// conformance suite asserts every advertised capability actually
// works and every denied one actually fails.
type Capabilities struct {
	// Name is the backend family: "cgroups-daemon", "testbed",
	// "registry".
	Name string `json:"name"`
	// Endpoint identifies the instance — the daemon base URL — and may
	// be empty for in-process backends.
	Endpoint string `json:"endpoint,omitempty"`
	// Snapshot reports that GetLimits works, which is what lets the
	// transactional apply path record pre-push state and roll back.
	Snapshot bool `json:"snapshot"`
	// Delete reports that DeleteGroup works, which is what lets a
	// rollback remove groups the push created.
	Delete bool `json:"delete"`
	// CreateOnSet reports that SetLimits on an unknown id creates the
	// group (cgroups semantics). Backends that cannot conjure targets —
	// testbed VMs — reject unknown ids instead.
	CreateOnSet bool `json:"create_on_set"`
	// InPlace reports that a resize lands without restarting the
	// guest; cgroups are always in-place.
	InPlace bool `json:"in_place"`
}

// Backend is the actuation write interface every deployment flavor
// implements — the cgroups-daemon Client, the in-process Registry and
// the testbed simulator. The transactional core.ApplyBox, the
// resilience decorators and the policy guard rails all sit above this
// interface and adapt to a backend through its Capabilities, so one
// resilient apply path serves every actuation target.
type Backend interface {
	// SetLimits creates or updates one group's limits.
	SetLimits(ctx context.Context, id string, l Limits) error
	// GetLimits reads one group's limits; missing groups return an
	// error matching ErrNotFound under errors.Is.
	GetLimits(ctx context.Context, id string) (Limits, error)
	// DeleteGroup removes one group (rollback of created groups).
	DeleteGroup(ctx context.Context, id string) error
	// Capabilities describes the backend.
	Capabilities() Capabilities
}

// Capabilities implements Backend for the HTTP client: a remote
// cgroups daemon supports the full transactional capability set and
// creates groups on first write.
func (c *Client) Capabilities() Capabilities {
	return Capabilities{
		Name:        "cgroups-daemon",
		Endpoint:    c.base,
		Snapshot:    true,
		Delete:      true,
		CreateOnSet: true,
		InPlace:     true,
	}
}

// Capabilities implements Backend for the in-process registry — the
// same semantics as the daemon it backs, minus the network.
func (r *Registry) Capabilities() Capabilities {
	return Capabilities{
		Name:        "registry",
		Snapshot:    true,
		Delete:      true,
		CreateOnSet: true,
		InPlace:     true,
	}
}

// Interface conformance pins: every in-package actuation flavor is a
// Backend.
var (
	_ Backend = (*Client)(nil)
	_ Backend = (*Registry)(nil)
)
