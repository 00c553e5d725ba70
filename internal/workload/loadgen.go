package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/stats"
)

// This file extends the evaluation harness with an HTTP load generator
// for the midasd serving layer, summarized as sustained QPS plus latency
// percentiles — the measured number behind the ROADMAP's "fast as the
// hardware allows". It has one dispatch loop over a pool of in-flight
// slots. Open loop, requests fire at the offsets of a scenario event
// schedule regardless of how fast the server answers — the arrival
// pattern "millions of users" actually present; the schedule comes from
// scenario.Spec.Generate or a recorded trace, so a run is exactly
// replayable. Closed loop is the same loop over a schedule whose events
// are all due at once: N slots, and a free slot fires the next request,
// so the arrival rate is coupled to the service rate.

// LoadConfig parameterizes one load-generation run.
type LoadConfig struct {
	// BaseURL of the midasd instance, e.g. "http://localhost:8642".
	BaseURL string
	// Addrs lists every cluster member's base URL. When set, the
	// generator is routing-table aware: it learns each federation's
	// owner from GET /v1/cluster and from 307 redirects, sends requests
	// straight to the owner, and falls back through the other members
	// when a node dies mid-run. Empty means single-node mode on BaseURL.
	Addrs []string
	// RedirectBudget bounds the 307 follows plus transport retries one
	// request may spend before counting as exhausted (default 4).
	RedirectBudget int
	// RetryBackoff is the pause before retrying after a transport error
	// or retryable status (default 50ms).
	RetryBackoff time.Duration
	// Federation and Query name what to submit (Federation may stay
	// empty on a single-tenant server; Query defaults to "Q12").
	Federation string
	Query      string
	// Clients is the number of concurrent closed-loop clients
	// (default 8).
	Clients int
	// Requests caps submissions per client; 0 runs until Duration.
	Requests int
	// Duration bounds a closed-loop run when Requests is 0 (default 10s).
	Duration time.Duration
	// Weights is the submitted policy (default {1, 1}).
	Weights []float64
	// TimeoutMS rides along on every request body.
	TimeoutMS int64
	// HTTPTimeout caps one HTTP round trip (default 60s).
	HTTPTimeout time.Duration
	// Events is the open-loop arrival schedule, offsets relative to run
	// start; an event's Federation and Query override the fields above
	// when set. Empty means closed loop, shaped by Clients, Requests
	// and Duration instead.
	Events []scenario.Event
	// MaxInFlight bounds an open-loop run's concurrent requests; an
	// arrival finding every slot busy waits for one, and the wait shows
	// up as schedule lag (default 256).
	MaxInFlight int
	// Speed scales the schedule: 2 fires it twice as fast, 0.5 at half
	// speed (default 1).
	Speed float64
}

func (c *LoadConfig) setDefaults() error {
	c.Addrs = slices.Clone(c.Addrs) // trimmed below; the caller's slice stays as it was
	for i, a := range c.Addrs {
		c.Addrs[i] = strings.TrimRight(a, "/")
	}
	if c.BaseURL == "" && len(c.Addrs) > 0 {
		c.BaseURL = c.Addrs[0]
	}
	if c.BaseURL == "" {
		return errors.New("workload: load config needs a BaseURL")
	}
	if c.RedirectBudget == 0 {
		c.RedirectBudget = 4
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.Query == "" {
		c.Query = "Q12"
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Clients < 1 {
		return fmt.Errorf("workload: non-positive client count %d", c.Clients)
	}
	if c.Requests < 0 {
		return fmt.Errorf("workload: negative request count %d", c.Requests)
	}
	if c.Requests == 0 && c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.HTTPTimeout == 0 {
		c.HTTPTimeout = 60 * time.Second
	}
	if len(c.Weights) == 0 {
		c.Weights = []float64{1, 1}
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.Speed <= 0 {
		c.Speed = 1
	}
	return nil
}

// arrival is the run's i-th event. A closed loop's are all the zero
// event: due at once, submitting the configured federation and query.
func (c *LoadConfig) arrival(i int) scenario.Event {
	if i < len(c.Events) {
		return c.Events[i]
	}
	return scenario.Event{}
}

// route names the federation and query an event submits: its own when
// set, else the run's ("default" names the run's federation too).
func (c *LoadConfig) route(ev scenario.Event) [2]string {
	r := [2]string{c.Federation, c.Query}
	if ev.Federation != "" && ev.Federation != "default" {
		r[0] = ev.Federation
	}
	if ev.Query != "" {
		r[1] = ev.Query
	}
	return r
}

// LoadReport summarizes one run.
type LoadReport struct {
	Clients  int
	Requests int
	// Errors counts transport failures and non-200 responses; a clean
	// run has zero.
	Errors int
	// Coalesced counts responses served from a shared plan sweep.
	Coalesced int
	Elapsed   time.Duration
	// QPS is completed requests per second of wall time.
	QPS float64
	// Latency percentiles over successful requests, milliseconds.
	P50MS, P90MS, P99MS, MaxMS float64
	// StatusCounts tallies responses by HTTP status (0 = transport
	// error).
	StatusCounts map[int]int
	// Redirects counts 307 ownership redirects followed; Exhausted the
	// requests that ran out of RedirectBudget (each also counted as an
	// error under its final status).
	Redirects int
	Exhausted int
	// Skipped counts schedule events never dispatched because the run
	// was cancelled first (open-loop runs only; always 0 closed-loop).
	Skipped int
	// PerNode breaks successful requests down by the serving cluster
	// member (from QueryResponse.Node; key "server" in standalone mode).
	PerNode map[string]NodeStats
}

// NodeStats is one cluster member's slice of a load run.
type NodeStats struct {
	Requests     int
	QPS          float64
	P50MS, P99MS float64
}

func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"%d clients, %d requests in %.2fs: %.1f QPS, p50 %.1fms, p90 %.1fms, p99 %.1fms, max %.1fms, %d errors, %d coalesced",
		r.Clients, r.Requests, r.Elapsed.Seconds(), r.QPS,
		r.P50MS, r.P90MS, r.P99MS, r.MaxMS, r.Errors, r.Coalesced)
}

// clientResult is one in-flight slot's tally.
type clientResult struct {
	latencies []float64
	statuses  map[int]int
	coalesced int
	perNode   map[string][]float64
	redirects int
	exhausted int
}

// tally records one completed shot.
func (res *clientResult) tally(shot shotResult, latMS float64) {
	res.statuses[shot.status]++
	res.redirects += shot.redirects
	if shot.exhausted {
		res.exhausted++
	}
	if shot.status == http.StatusOK {
		res.latencies = append(res.latencies, latMS)
		node := shot.node
		if node == "" {
			node = "server"
		}
		res.perNode[node] = append(res.perNode[node], latMS)
		if shot.coalesced {
			res.coalesced++
		}
	}
}

// router directs one federation's requests at its current owner. It
// caches the owner address learned from successful responses, 307
// Location headers and GET /v1/cluster, and falls back to round-robin
// over the seed list while no owner is known (or after the cached one
// stopped answering).
type router struct {
	fed   string
	seeds []string
	next  atomic.Uint64
	mu    sync.Mutex
	owner string
}

func newRouter(cfg *LoadConfig, fed string) *router {
	seeds := cfg.Addrs
	if len(seeds) == 0 {
		seeds = []string{cfg.BaseURL}
	}
	return &router{fed: fed, seeds: seeds}
}

// target picks the base URL for the next attempt.
func (rt *router) target() string {
	rt.mu.Lock()
	u := rt.owner
	rt.mu.Unlock()
	if u != "" {
		return u
	}
	return rt.seeds[rt.next.Add(1)%uint64(len(rt.seeds))]
}

func (rt *router) setOwner(base string) {
	rt.mu.Lock()
	rt.owner = base
	rt.mu.Unlock()
}

// forget drops the cached owner if it still is base, forcing the next
// attempt back onto the seed rotation.
func (rt *router) forget(base string) {
	rt.mu.Lock()
	if rt.owner == base {
		rt.owner = ""
	}
	rt.mu.Unlock()
}

// refresh re-reads the routing table from any live seed and re-resolves
// the federation's owner. Best-effort: a cluster that is entirely
// unreachable just leaves the cache empty.
func (rt *router) refresh(ctx context.Context, client *http.Client) {
	for range rt.seeds {
		base := rt.seeds[rt.next.Add(1)%uint64(len(rt.seeds))]
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/cluster", nil)
		if err != nil {
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		var cr server.ClusterResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		name := rt.fed
		if name == "" && len(cr.Placements) == 1 {
			for n := range cr.Placements {
				name = n
			}
		}
		p, ok := cr.Placements[name]
		if !ok {
			return
		}
		for _, m := range cr.Members {
			if m.ID == p.Owner {
				rt.setOwner(m.Addr)
				return
			}
		}
		return
	}
}

// target is what one (federation, query) pair submits, and where.
type target struct {
	rt   *router
	body []byte
}

// RunLoad drives the configured run against the server and blocks
// until every dispatched request completes (or ctx cancels the run).
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	slots, arrivals := cfg.MaxInFlight, len(cfg.Events)
	if arrivals == 0 {
		slots, arrivals = cfg.Clients, cfg.Clients*cfg.Requests
		if cfg.Requests == 0 {
			arrivals = math.MaxInt
		}
	}
	client := &http.Client{
		Timeout: cfg.HTTPTimeout,
		Transport: &http.Transport{
			// Each in-flight slot holds one connection.
			MaxIdleConns:        slots,
			MaxIdleConnsPerHost: slots,
		},
		// 307s are followed by hand so each hop updates the routing
		// cache and spends the request's redirect budget.
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}

	// Resolve every pair the run submits before it starts, so the
	// dispatcher only reads: one marshalled body per pair, and one
	// router per federation whose owner a cluster run learns up front
	// instead of paying a redirect per slot.
	targets := make(map[[2]string]target)
	routers := make(map[string]*router)
	for i := range max(1, len(cfg.Events)) {
		r := cfg.route(cfg.arrival(i))
		if _, ok := targets[r]; ok {
			continue
		}
		rt := routers[r[0]]
		if rt == nil {
			rt = newRouter(&cfg, r[0])
			routers[r[0]] = rt
			if len(cfg.Addrs) > 0 {
				rt.refresh(ctx, client)
			}
		}
		body, err := json.Marshal(server.QueryRequest{
			Federation: r[0], Query: r[1], Weights: cfg.Weights, TimeoutMS: cfg.TimeoutMS,
		})
		if err != nil {
			return nil, err
		}
		targets[r] = target{rt, body}
	}

	// Duration bounds only an open-ended closed loop: a fixed count
	// (-requests) or a schedule must complete, not be silently cut.
	if len(cfg.Events) == 0 && cfg.Requests == 0 && cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	// One clientResult per in-flight slot: a request tallies into the
	// slot it ran in, and summarize is grouping-invariant (pinned by
	// TestSummarizeGroupingInvariant), so this is just lock-free
	// bookkeeping, not a semantic grouping.
	results := make([]clientResult, slots)
	free := make(chan int, slots)
	for i := range results {
		results[i].statuses = make(map[int]int)
		results[i].perNode = make(map[string][]float64)
		free <- i
	}

	var wg sync.WaitGroup
	skipped := 0
	start := time.Now()
	for i := 0; i < arrivals; i++ {
		ev := cfg.arrival(i)
		if wait := time.Until(start.Add(time.Duration(float64(ev.Offset) / cfg.Speed))); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		var slot int
		select {
		case slot = <-free:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			skipped = max(0, len(cfg.Events)-i)
			break
		}
		wg.Add(1)
		go func(t target) {
			defer wg.Done()
			defer func() { free <- slot }()
			began := time.Now()
			shot := submitShot(ctx, client, t.rt, &cfg, t.body)
			// A shot cut down by the run deadline is not a server
			// error; drop it rather than misreport.
			if shot.status == 0 && ctx.Err() != nil {
				return
			}
			results[slot].tally(shot, float64(time.Since(began))/float64(time.Millisecond))
		}(targets[cfg.route(ev)])
	}
	wg.Wait()
	report := summarize(results, slots, time.Since(start))
	report.Skipped = skipped
	return report, nil
}

// summarize folds the per-slot tallies into one report — the
// percentile and rate math of a load run, separated from the HTTP loop
// so it is testable against known inputs.
func summarize(results []clientResult, clients int, elapsed time.Duration) *LoadReport {
	report := &LoadReport{
		Clients:      clients,
		Elapsed:      elapsed,
		StatusCounts: make(map[int]int),
		PerNode:      make(map[string]NodeStats),
	}
	var all []float64
	perNode := make(map[string][]float64)
	for i := range results {
		res := &results[i]
		for status, n := range res.statuses {
			report.StatusCounts[status] += n
			report.Requests += n
			if status != http.StatusOK {
				report.Errors += n
			}
		}
		report.Coalesced += res.coalesced
		report.Redirects += res.redirects
		report.Exhausted += res.exhausted
		all = append(all, res.latencies...)
		for node, lats := range res.perNode {
			perNode[node] = append(perNode[node], lats...)
		}
	}
	for node, lats := range perNode {
		ns := NodeStats{Requests: len(lats)}
		if elapsed > 0 {
			ns.QPS = float64(len(lats)) / elapsed.Seconds()
		}
		if qs, err := stats.Quantiles(lats, 0.50, 0.99); err == nil {
			ns.P50MS, ns.P99MS = qs[0], qs[1]
		}
		report.PerNode[node] = ns
	}
	if elapsed > 0 {
		report.QPS = float64(len(all)) / elapsed.Seconds()
	}
	if len(all) > 0 {
		if qs, err := stats.Quantiles(all, 0.50, 0.90, 0.99, 1); err == nil {
			report.P50MS, report.P90MS, report.P99MS, report.MaxMS = qs[0], qs[1], qs[2], qs[3]
		}
	}
	return report
}

// shotResult is the outcome of one logical request, after redirect
// following and retries.
type shotResult struct {
	status    int
	node      string
	coalesced bool
	redirects int
	exhausted bool
}

// submitShot fires one logical request: POST at the routed target,
// follow 307s by hand, retry transport errors and 503s against a
// refreshed routing table — all within cfg.RedirectBudget attempts.
func submitShot(ctx context.Context, client *http.Client, rt *router, cfg *LoadConfig, body []byte) shotResult {
	var out shotResult
	base := rt.target()
	for attempt := 0; ; attempt++ {
		status, node, coalesced, loc := postOnce(ctx, client, base+"/v1/queries", body)
		out.status, out.node, out.coalesced = status, node, coalesced
		retryable := status == http.StatusTemporaryRedirect ||
			status == http.StatusServiceUnavailable || status == 0
		if !retryable {
			if status == http.StatusOK {
				rt.setOwner(base)
			}
			return out
		}
		if attempt >= cfg.RedirectBudget {
			out.exhausted = true
			return out
		}
		switch status {
		case http.StatusTemporaryRedirect:
			// The redirect names the owner directly — no backoff needed.
			next := strings.TrimSuffix(loc, "/v1/queries")
			if next == "" || next == base {
				out.exhausted = true
				return out
			}
			base = next
			rt.setOwner(base)
			out.redirects++
		default:
			// Dead or draining node: drop it from the cache, re-learn the
			// table from the surviving members, back off, try again.
			rt.forget(base)
			select {
			case <-time.After(cfg.RetryBackoff):
			case <-ctx.Done():
				return out
			}
			rt.refresh(ctx, client)
			base = rt.target()
		}
	}
}

// postOnce fires one POST and reports (status, node, coalesced,
// location); status 0 means the request never produced an HTTP
// response. A 200 whose body does not decode is still a 200, without a
// node stamp: the server records the round before it answers, so a
// retry would record it twice.
func postOnce(ctx context.Context, client *http.Client, url string, body []byte) (int, string, bool, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", false, ""
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", false, ""
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, "", false, resp.Header.Get("Location")
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return http.StatusOK, "", false, ""
	}
	return resp.StatusCode, qr.Node, qr.Coalesced, ""
}
