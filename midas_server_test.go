package midas_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/server"
	"repro/internal/workload"
)

// TestServeAndLoad drives the serving stack end to end: build a
// server, point the load generator at it, and require a clean run with
// coalescing visible in the report.
func TestServeAndLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	srv, err := server.New(server.Config{
		Federations: []server.FederationSpec{{
			Name:        "paper",
			SF:          0.05,
			NodeChoices: []int{1, 2},
			Bootstrap:   12,
			Queries:     []string{"Q12"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := workload.RunLoad(context.Background(), workload.LoadConfig{
		BaseURL:  ts.URL,
		Query:    "Q12",
		Clients:  16,
		Requests: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d errors: %v", rep.Errors, rep.StatusCounts)
	}
	if rep.Requests != 64 {
		t.Fatalf("requests = %d, want 64", rep.Requests)
	}
	if rep.QPS <= 0 || rep.P99MS < rep.P50MS {
		t.Fatalf("implausible report: %+v", rep)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
