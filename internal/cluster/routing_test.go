package cluster_test

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"hybridqos/internal/cluster"
	"hybridqos/internal/policy"
	"hybridqos/internal/rng"
)

func router(t *testing.T, name string, cells, classes int) cluster.Router {
	t.Helper()
	r, err := cluster.NewRouter(name, cells, classes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoutingRegistry(t *testing.T) {
	names := cluster.RoutingNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("RoutingNames not sorted: %v", names)
	}
	for _, want := range []string{"nearest", "least-loaded", "class-affine"} {
		if !cluster.KnownRouting(want) {
			t.Errorf("builtin %q not registered", want)
		}
	}
	if !cluster.KnownRouting("") {
		t.Error("empty name (default) should be known")
	}
	if cluster.KnownRouting("teleport") {
		t.Error("unregistered name reported known")
	}
	var unknown *policy.UnknownError
	if _, err := cluster.NewRouter("teleport", 4, 3); !errors.As(err, &unknown) {
		t.Errorf("NewRouter(teleport) = %v, want *policy.UnknownError", err)
	} else if unknown.Kind != "routing" || unknown.Name != "teleport" || !reflect.DeepEqual(unknown.Known, names) {
		t.Errorf("UnknownError = %+v, want kind routing, name teleport, known %v", unknown, names)
	}
	cfg := cluster.Config{Cells: 2, Base: base(t), HandoffEvery: 40, Routing: "teleport"}
	if err := cfg.Validate(); !errors.As(err, &unknown) || unknown.Kind != "routing" {
		t.Errorf("Validate with routing teleport = %v, want a routing *policy.UnknownError", err)
	}
	if r := router(t, "", 4, 3); r.Name() != cluster.DefaultRouting {
		t.Errorf("default router is %q, want %q", r.Name(), cluster.DefaultRouting)
	}
	for _, name := range []string{"nearest", "least-loaded", "class-affine"} {
		if _, err := cluster.NewRouter(name, 1, 3); err == nil {
			t.Errorf("%s accepted a 1-cell cluster", name)
		}
	}
}

func TestNearestRouting(t *testing.T) {
	r := router(t, "nearest", 2, 3)
	src := rng.New(7)
	for i := 0; i < 10; i++ {
		if dst := r.Route(0, 0, []int{0, 0}, src); dst != 1 {
			t.Fatalf("2-cell nearest from 0 → %d", dst)
		}
	}
	r = router(t, "nearest", 5, 3)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		dst := r.Route(2, 0, make([]int, 5), src)
		if dst != 1 && dst != 3 {
			t.Fatalf("nearest from 2 of 5 → %d, want a ring neighbour", dst)
		}
		seen[dst] = true
	}
	if !seen[1] || !seen[3] {
		t.Errorf("nearest never used both neighbours: %v", seen)
	}
	// Wrap-around at the ring edges.
	for i := 0; i < 100; i++ {
		if dst := r.Route(0, 0, make([]int, 5), src); dst != 1 && dst != 4 {
			t.Fatalf("nearest from 0 of 5 → %d", dst)
		}
	}
}

func TestLeastLoadedRouting(t *testing.T) {
	r := router(t, "least-loaded", 4, 3)
	src := rng.New(7)
	if dst := r.Route(0, 0, []int{0, 5, 2, 9}, src); dst != 2 {
		t.Errorf("least-loaded → %d, want 2", dst)
	}
	// The origin cell is never a destination, even when least loaded.
	if dst := r.Route(2, 0, []int{5, 5, 0, 9}, src); dst == 2 {
		t.Error("least-loaded routed back to the origin")
	}
	// Ties break to the lowest index.
	if dst := r.Route(3, 0, []int{4, 4, 4, 4}, src); dst != 0 {
		t.Errorf("tie → %d, want 0", dst)
	}
}

func TestClassAffineRouting(t *testing.T) {
	// 6 cells, 3 classes: class c owns cells {c, c+3}.
	r := router(t, "class-affine", 6, 3)
	src := rng.New(7)
	loads := []int{9, 9, 9, 1, 2, 3}
	if dst := r.Route(0, 0, loads, src); dst != 3 {
		t.Errorf("class 0 → %d, want 3 (least-loaded cell of class 0, excluding origin)", dst)
	}
	if dst := r.Route(1, 1, loads, src); dst != 4 {
		t.Errorf("class 1 → %d, want 4", dst)
	}
	// Partition empty after excluding the origin → least-loaded fallback.
	r2 := router(t, "class-affine", 3, 3)
	if dst := r2.Route(1, 1, []int{7, 0, 3}, src); dst != 2 {
		t.Errorf("fallback → %d, want 2", dst)
	}
}
