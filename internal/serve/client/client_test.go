package client_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"dtl/internal/experiments"
	"dtl/internal/serve"
	"dtl/internal/serve/client"
)

// TestExperimentsListsRegistry lists GET /v1/experiments through the same
// in-process daemon the package Example drives and requires every registered
// experiment, in registry order, with its name.
func TestExperimentsListsRegistry(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain(context.Background()) })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := client.New(hs.URL).Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	all := experiments.All()
	if len(got) != len(all) {
		t.Fatalf("listed %d experiments, registry has %d", len(got), len(all))
	}
	for i, e := range all {
		if want := (serve.ExperimentInfo{ID: e.ID, Name: e.Name}); got[i] != want {
			t.Fatalf("experiment %d: %+v, want %+v", i, got[i], want)
		}
	}
}
