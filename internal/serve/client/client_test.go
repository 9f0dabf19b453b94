package client_test

import (
	"context"
	"errors"
	"net"
	"net/http"
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

// TestSingleAttemptFailures checks how one call fails: a non-2xx response
// surfaces as *APIError with the status, the server's message and its
// Retry-After hint; a dial error reaches the caller as itself; and a context
// deadline ends a call the server never answers.
func TestSingleAttemptFailures(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full"}`))
	}))
	t.Cleanup(busy.Close)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hung.Close)
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close() // every dial now fails at the socket

	for _, tc := range []struct {
		name  string
		url   string
		check func(error) bool
	}{
		{"api_error", busy.URL, func(err error) bool {
			var apiErr *client.APIError
			return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests &&
				apiErr.Message == "queue full" && apiErr.RetryAfter == "1"
		}},
		{"transport_error", closed.URL, func(err error) bool {
			var opErr *net.OpError
			return errors.As(err, &opErr) && opErr.Op == "dial"
		}},
		{"context_deadline", hung.URL, func(err error) bool {
			return errors.Is(err, context.DeadlineExceeded)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			if err := client.New(tc.url).Health(ctx); !tc.check(err) {
				t.Fatalf("Health: %v", err)
			}
		})
	}
}
