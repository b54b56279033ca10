package actuator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCRUD(t *testing.T) {
	r := NewRegistry()
	if err := r.Set("vm-1", Limits{CPUGHz: 2, RAMGB: 4}); err != nil {
		t.Fatalf("Set: %v", err)
	}
	l, err := r.Get("vm-1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if l.CPUGHz != 2 || l.RAMGB != 4 {
		t.Errorf("limits = %+v", l)
	}
	// Update in place (the cgroups on-the-fly property).
	if err := r.Set("vm-1", Limits{CPUGHz: 3, RAMGB: 4}); err != nil {
		t.Fatalf("update: %v", err)
	}
	l, _ = r.Get("vm-1")
	if l.CPUGHz != 3 {
		t.Errorf("update lost: %+v", l)
	}
	r.Delete("vm-1")
	if _, err := r.Get("vm-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	r.Delete("vm-1") // idempotent
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Set("", Limits{CPUGHz: 1, RAMGB: 1}); err == nil {
		t.Error("empty id accepted")
	}
	if err := r.Set("vm", Limits{CPUGHz: 0, RAMGB: 1}); err == nil {
		t.Error("zero CPU accepted")
	}
	if err := r.Set("vm", Limits{CPUGHz: 1, RAMGB: -1}); err == nil {
		t.Error("negative RAM accepted")
	}
}

// TestRegistryListSorted: the daemon's GET /cgroups lists every group
// in id order.
func TestRegistryListSorted(t *testing.T) {
	c, r := newTestDaemon(t)
	for _, id := range []string{"c", "a", "b"} {
		if err := r.Set(id, Limits{CPUGHz: 1, RAMGB: 1}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.http.Get(c.base + "/cgroups")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	a, b, cc := bytes.Index(body, []byte(`"a"`)), bytes.Index(body, []byte(`"b"`)), bytes.Index(body, []byte(`"c"`))
	if a < 0 || !(a < b && b < cc) {
		t.Fatalf("GET /cgroups = %s, want groups a, b, c in order", body)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a' + i%4))
			for j := 0; j < 100; j++ {
				_ = r.Set(id, Limits{CPUGHz: float64(j + 1), RAMGB: 1})
				_, _ = r.Get(id)
				_ = r.Snapshot()
			}
		}(i)
	}
	wg.Wait() // run with -race to verify
	if snap := r.Snapshot(); len(snap) != 4 {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	r := NewRegistry()
	_ = r.Set("vm", Limits{CPUGHz: 1, RAMGB: 1})
	snap := r.Snapshot()
	snap["vm"] = Limits{CPUGHz: 99, RAMGB: 99}
	l, _ := r.Get("vm")
	if l.CPUGHz != 1 {
		t.Error("Snapshot aliases registry state")
	}
}

func newTestDaemon(t *testing.T) (*Client, *Registry) {
	t.Helper()
	r := NewRegistry()
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	return mustClient(t, srv.URL, srv.Client()), r
}

func mustClient(t *testing.T, base string, httpc *http.Client) *Client {
	t.Helper()
	c, err := NewClient(base, httpc)
	if err != nil {
		t.Fatalf("NewClient(%q) = %v", base, err)
	}
	return c
}

func TestClientRoundTrip(t *testing.T) {
	c, _ := newTestDaemon(t)
	ctx := context.Background()

	want := Limits{CPUGHz: 7.2, RAMGB: 4}
	if err := c.SetLimits(ctx, "wiki-one-apache-1", want); err != nil {
		t.Fatalf("SetLimits: %v", err)
	}
	got, err := c.GetLimits(ctx, "wiki-one-apache-1")
	if err != nil {
		t.Fatalf("GetLimits: %v", err)
	}
	if got != want {
		t.Errorf("limits = %+v, want %+v", got, want)
	}

	resp, err := c.http.Get(c.base + "/cgroups")
	if err != nil {
		t.Fatalf("GET /cgroups: %v", err)
	}
	var all map[string]Limits
	err = json.NewDecoder(resp.Body).Decode(&all)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /cgroups: %v", err)
	}
	if len(all) != 1 || all["wiki-one-apache-1"] != want {
		t.Errorf("list = %+v", all)
	}

	if err := c.DeleteGroup(ctx, "wiki-one-apache-1"); err != nil {
		t.Fatalf("DeleteGroup: %v", err)
	}
	if _, err := c.GetLimits(ctx, "wiki-one-apache-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestClientErrors(t *testing.T) {
	c, _ := newTestDaemon(t)
	ctx := context.Background()
	if _, err := c.GetLimits(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if err := c.SetLimits(ctx, "vm", Limits{CPUGHz: -1, RAMGB: 1}); err == nil {
		t.Error("invalid limits accepted by daemon")
	}
}

func TestHandlerHTTPSemantics(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	// POST to collection: method not allowed.
	resp, err := http.Post(srv.URL+"/cgroups", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /cgroups = %d, want 405", resp.StatusCode)
	}

	// Nested path: bad request.
	resp, err = http.Get(srv.URL + "/cgroups/a/b")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /cgroups/a/b = %d, want 400", resp.StatusCode)
	}

	// Malformed body on PUT.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cgroups/vm", strings.NewReader("{not json"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad PUT = %d, want 400", resp.StatusCode)
	}
}
