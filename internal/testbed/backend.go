package testbed

import (
	"context"
	"fmt"
	"net/http"

	"atm/internal/actuator"
)

// ClusterBackend exposes a Cluster's live cgroup tree as an
// actuator.Backend, with the semantics a simulated datacenter should
// have: the VM inventory is fixed by the topology, so writes to ids
// the cluster does not host are rejected terminally instead of
// conjuring a cgroup no simulated VM reads (CreateOnSet=false).
type ClusterBackend struct {
	c     *Cluster
	known map[string]bool
}

// Backend wraps the cluster.
func (c *Cluster) Backend() *ClusterBackend {
	known := make(map[string]bool, len(c.VMs))
	for _, vm := range c.VMs {
		known[vm.ID] = true
	}
	return &ClusterBackend{c: c, known: known}
}

// SetLimits resizes one simulated VM's cgroup; unknown VMs are a
// terminal 422 before any write.
func (b *ClusterBackend) SetLimits(ctx context.Context, id string, l actuator.Limits) error {
	if !b.known[id] {
		return &actuator.Error{Op: "set_limits", ID: id, Status: http.StatusUnprocessableEntity,
			Err: fmt.Errorf("testbed: cluster hosts no VM %q", id)}
	}
	return b.c.Limits.SetLimits(ctx, id, l)
}

// GetLimits reads one simulated VM's cgroup.
func (b *ClusterBackend) GetLimits(ctx context.Context, id string) (actuator.Limits, error) {
	return b.c.Limits.GetLimits(ctx, id)
}

// DeleteGroup removes one simulated VM's cgroup (the VM then runs
// unlimited until the next write, matching a hypervisor losing its
// limit file).
func (b *ClusterBackend) DeleteGroup(ctx context.Context, id string) error {
	return b.c.Limits.DeleteGroup(ctx, id)
}

// Capabilities reports full snapshot/delete support but no
// create-on-write: the simulated inventory is closed.
func (b *ClusterBackend) Capabilities() actuator.Capabilities {
	return actuator.Capabilities{
		Name:        "testbed",
		Snapshot:    true,
		Delete:      true,
		CreateOnSet: false,
		InPlace:     true,
	}
}

var _ actuator.Backend = (*ClusterBackend)(nil)
