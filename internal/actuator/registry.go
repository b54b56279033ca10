// Package actuator models the paper's actuation layer (Section IV-C):
// per-VM resource limits enforced through Linux cgroups, exposed by "a
// small daemon at each hypervisor" over a web-based API so limits can
// change on the fly without restarting guests. The Registry is the
// in-memory cgroup tree; Handler serves the HTTP API; Client is the
// controller-side accessor.
package actuator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"

	"atm/internal/obs"
)

// Registry gauges: the live cgroup population and the total capacity
// currently allocated across it — the daemon-side view of what the
// controller's resize decisions add up to. Updated with deltas under
// the registry lock, so concurrent registries aggregate consistently
// into the process-wide totals.
var (
	gaugeCgroups = obs.Default().Gauge("atm_actuator_cgroups",
		"Live cgroups across actuation registries.")
	gaugeAllocCPU = obs.Default().Gauge("atm_actuator_cpu_alloc_ghz",
		"Total CPU capacity allocated across cgroups (GHz).")
	gaugeAllocRAM = obs.Default().Gauge("atm_actuator_ram_alloc_gb",
		"Total RAM capacity allocated across cgroups (GB).")
	counterSets = obs.Default().Counter("atm_actuator_limit_sets_total",
		"Cgroup limit create/update operations applied.")
)

// Limits are the enforced capacity caps for one VM's cgroup.
type Limits struct {
	// CPUGHz caps CPU bandwidth (cgroup cpu.cfs_quota equivalent,
	// expressed in GHz). Cgroups give almost continuous CPU control,
	// unlike adding/removing whole virtual cores.
	CPUGHz float64 `json:"cpu_ghz"`
	// RAMGB caps memory (cgroup memory.limit_in_bytes equivalent).
	RAMGB float64 `json:"ram_gb"`
}

// Validate rejects limits that are not finite positive numbers. NaN
// needs the explicit check: `v <= 0` is false for NaN, so without it a
// NaN limit would sail through and poison the allocation gauges.
func (l Limits) Validate() error {
	for _, v := range [...]float64{l.CPUGHz, l.RAMGB} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("actuator: limits must be finite and positive, got cpu_ghz=%v ram_gb=%v", l.CPUGHz, l.RAMGB)
		}
	}
	return nil
}

// ErrNotFound indicates the named cgroup does not exist.
var ErrNotFound = errors.New("actuator: cgroup not found")

// Registry is a concurrency-safe map of cgroup name → limits. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	groups map[string]Limits
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]Limits)}
}

// Set creates or updates a cgroup's limits.
func (r *Registry) Set(id string, l Limits) error {
	if id == "" {
		return errors.New("actuator: empty cgroup id")
	}
	if err := l.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, existed := r.groups[id]
	r.groups[id] = l
	if !existed {
		gaugeCgroups.Inc()
	}
	gaugeAllocCPU.Add(l.CPUGHz - old.CPUGHz)
	gaugeAllocRAM.Add(l.RAMGB - old.RAMGB)
	counterSets.Inc()
	return nil
}

// Get returns a cgroup's limits.
func (r *Registry) Get(id string) (Limits, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	l, ok := r.groups[id]
	if !ok {
		return Limits{}, fmt.Errorf("%q: %w", id, ErrNotFound)
	}
	return l, nil
}

// Delete removes a cgroup. Deleting a missing cgroup is a no-op, as
// with rmdir-style cgroup teardown it models.
func (r *Registry) Delete(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, existed := r.groups[id]
	if existed {
		gaugeCgroups.Dec()
		gaugeAllocCPU.Add(-old.CPUGHz)
		gaugeAllocRAM.Add(-old.RAMGB)
	}
	delete(r.groups, id)
}

// Snapshot returns a copy of the whole tree.
func (r *Registry) Snapshot() map[string]Limits {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Limits, len(r.groups))
	for id, l := range r.groups {
		out[id] = l
	}
	return out
}

// Handler serves the daemon's HTTP API:
//
//	GET    /cgroups        → {"<id>": {"cpu_ghz": x, "ram_gb": y}, ...}
//	GET    /cgroups/<id>   → {"cpu_ghz": x, "ram_gb": y}
//	PUT    /cgroups/<id>   ← {"cpu_ghz": x, "ram_gb": y}
//	DELETE /cgroups/<id>
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cgroups", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, r.Snapshot())
	})
	mux.HandleFunc("/cgroups/", func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimPrefix(req.URL.Path, "/cgroups/")
		if id == "" || strings.Contains(id, "/") {
			writeJSONError(w, http.StatusBadRequest, "bad cgroup id")
			return
		}
		switch req.Method {
		case http.MethodGet:
			l, err := r.Get(id)
			if errors.Is(err, ErrNotFound) {
				writeJSONError(w, http.StatusNotFound, err.Error())
				return
			}
			writeJSON(w, l)
		case http.MethodPut:
			var l Limits
			if err := json.NewDecoder(req.Body).Decode(&l); err != nil {
				writeJSONError(w, http.StatusBadRequest, "bad body: "+err.Error())
				return
			}
			if err := r.Set(id, l); err != nil {
				writeJSONError(w, http.StatusBadRequest, err.Error())
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			r.Delete(id)
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
		}
	})
	return mux
}

// writeJSONError responds with {"error": msg} so clients and operators
// parse daemon rejections uniformly.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more to do.
		return
	}
}

// SetLimits adapts the registry to the controller-facing interface
// shared with Client, letting in-process callers skip HTTP. The
// context is accepted for symmetry and ignored. Failures carry the
// same typed classification the daemon would produce over HTTP (an
// invalid write is a terminal 400), so retry and rollback policy is
// backend-independent.
func (r *Registry) SetLimits(_ context.Context, id string, l Limits) error {
	if err := r.Set(id, l); err != nil {
		return &Error{Op: "set_limits", ID: id, Status: http.StatusBadRequest, Err: err}
	}
	return nil
}

// GetLimits adapts the registry to the controller-facing read
// interface shared with Client, so transactional appliers can snapshot
// in-process registries the same way they snapshot remote daemons. A
// missing cgroup is a terminal 404 still matching ErrNotFound.
func (r *Registry) GetLimits(_ context.Context, id string) (Limits, error) {
	l, err := r.Get(id)
	if err != nil {
		return Limits{}, &Error{Op: "get_limits", ID: id, Status: http.StatusNotFound, Err: err}
	}
	return l, nil
}

// DeleteGroup adapts the registry to the controller-facing delete
// interface shared with Client (used to roll back cgroup creations).
func (r *Registry) DeleteGroup(_ context.Context, id string) error {
	r.Delete(id)
	return nil
}
