package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/server"
)

// fakeMidasd answers every POST /v1/queries with status; a 200 carries
// a minimal QueryResponse.
func fakeMidasd(t *testing.T, status int) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/queries" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(status)
		if status == http.StatusOK {
			_ = json.NewEncoder(w).Encode(server.QueryResponse{Query: "Q12"})
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// midasload runs the command with args and returns what it printed.
func midasload(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// okLine is what CI's `sed -n 's/^ *HTTP 200 OK *//p'` keeps: the
// count of acked requests.
var okLine = regexp.MustCompile(`(?m)^ *HTTP 200 OK *(.*)$`)

func acked(out string) []string {
	var got []string
	for _, m := range okLine.FindAllStringSubmatch(out, -1) {
		got = append(got, m[1])
	}
	return got
}

// TestOutputContract pins the lines the CI jobs and the smoke scripts
// parse, for a closed loop, a recorded schedule and its replay.
func TestOutputContract(t *testing.T) {
	addr := fakeMidasd(t, http.StatusOK)
	out, err := midasload(t, "-addr", addr, "-clients", "2", "-requests", "3")
	if err != nil {
		t.Fatal(err)
	}
	if got := acked(out); !slices.Equal(got, []string{"6"}) {
		t.Fatalf("HTTP 200 OK lines give %q, want [6]:\n%s", got, out)
	}

	trace := filepath.Join(t.TempDir(), "run.trace")
	out, err = midasload(t, "-addr", addr, "-arrival", "poisson", "-rate", "1000", "-events", "20", "-record", trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "recorded 20 events to "+trace+"\n") || !slices.Equal(acked(out), []string{"20"}) {
		t.Fatalf("recording run printed:\n%s", out)
	}
	out, err = midasload(t, "-addr", addr, "-replay", trace, "-speed", "10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "replaying 20 events from "+trace+"\n") || !slices.Equal(acked(out), []string{"20"}) {
		t.Fatalf("replaying run printed:\n%s", out)
	}

	if _, err := midasload(t, "-addr", addr, "-replay", trace, "-arrival", "poisson"); err == nil ||
		!strings.Contains(err.Error(), "-replay is exclusive with -arrival and -record") {
		t.Fatalf("-replay with -arrival: err = %v, want the exclusivity error", err)
	}
}

// TestFailedRequestsFailTheRun: a failed request makes the run an error
// (exit 1) unless -allow-errors is set.
func TestFailedRequestsFailTheRun(t *testing.T) {
	addr := fakeMidasd(t, http.StatusInternalServerError)
	if _, err := midasload(t, "-addr", addr, "-clients", "1", "-requests", "2"); err == nil ||
		!strings.Contains(err.Error(), "2 of 2 requests failed") {
		t.Fatalf("err = %v, want 2 of 2 requests failed", err)
	}
	if _, err := midasload(t, "-addr", addr, "-clients", "1", "-requests", "2", "-allow-errors"); err != nil {
		t.Fatalf("-allow-errors: %v", err)
	}
}

// TestFlagSet pins midasload's flags and their defaults: the CI jobs and
// the smoke scripts pass them by name.
func TestFlagSet(t *testing.T) {
	got := map[string]string{}
	newFlagSet(new(options)).VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"addr": "http://localhost:8642", "federation": "", "query": "Q12",
		"clients": "50", "requests": "0", "duration": "10s", "weights": "1,1",
		"timeout-ms": "0", "allow-errors": "false", "redirect-budget": "4",
		"retry-backoff": "50ms", "arrival": "", "rate": "50", "events": "500",
		"seed": "42", "record": "", "replay": "", "max-inflight": "0", "speed": "1",
	}
	if !maps.Equal(got, want) {
		t.Fatalf("flags and defaults = %v\nwant %v", got, want)
	}
}
