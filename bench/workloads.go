package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/histstore"
	"repro/internal/ires"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/tpch"
)

// env is what a run knows about its box and its scratch space.
type env struct {
	workDir    string // removed at teardown; every data dir lives below it
	gomaxprocs int
	seed       int64
	smoke      bool // tiny sizes: proves boots, checks and teardown
}

// workload is one traffic mix on one deployment. The sizes are frozen:
// later changes are compared on exactly these counts and rates.
type workload struct {
	name, why string
	// oneRequest: every request is the same, so every run decides alike
	// whatever -seed says.
	oneRequest bool
	boots      int // cold boots behind setup_s, which reports their median
	warmup     int // requests sent and discarded before anything is measured
	block      int // fixed-count block behind mre_*, allocs_per_req, heap_live_mb
	traceReqs  int // requests of the traced run
	// planSpace is the lattice size every decision must report.
	planSpace   int
	nodeChoices []int
	// prepare runs once per process before the first boot, untimed.
	prepare func(e *env) error
	// boot builds the deployment and returns how long the program under
	// test took from its constructor call to the first 200 on /readyz.
	boot func(e *env, attempt int, tr *tracer) (*stack, time.Duration, error)
	// seq maps the global request number to its target node and request.
	seq func(e *env) func(i uint64) (int, *reqSpec)
	// verify holds the workload's own end-of-run checks.
	verify func(e *env, st *stack, acked map[string]int) error
}

var queryNames = []string{"Q12", "Q13", "Q14", "Q17"}

var sweepWeights = [][2]float64{{1, 1}, {4, 1}, {1, 4}}

const (
	durableBootstrap = 5000 // observations per query the populate boot writes
	clusterNodes     = 3
	clusterFeds      = 6
)

// workloads lists the four in the order they run. Names are final.
func workloads() []*workload {
	return []*workload{
		{
			name:       "solo",
			why:        "one in-memory tenant, Q12, 18 plans: every request pays a cold window search, so net/http+JSON, server and core/regression dominate",
			oneRequest: true, boots: 15, warmup: 500, block: 4000, traceReqs: 3000,
			planSpace: 18, nodeChoices: []int{1, 2, 4},
			boot: bootSolo,
			seq: func(*env) func(uint64) (int, *reqSpec) {
				spec := encodeSubmit("solo", "Q12", [2]float64{1, 1})
				return func(uint64) (int, *reqSpec) { return 0, &spec }
			},
		},
		{
			name:  "sweep",
			why:   "2,048-plan lattice swept in full, four queries x three policies: ires sweep, moo Pareto and per-plan core prediction dominate, transport is noise",
			boots: 15, warmup: 100, block: 600, traceReqs: 400,
			planSpace: 2048, nodeChoices: federation.NodeRange(32),
			boot: bootSweep,
			seq: func(e *env) func(uint64) (int, *reqSpec) {
				var specs []reqSpec
				for _, q := range queryNames {
					for _, w := range sweepWeights {
						specs = append(specs, encodeSubmit("sweep", q, w))
					}
				}
				return func(i uint64) (int, *reqSpec) { return 0, &specs[mix(e.seed, i)%uint64(len(specs))] }
			},
		},
		{
			name:  "durable",
			why:   "WAL on a real directory, 90% submits beside 10% history reads of 50 observations, boot is recovery of 20,000 frames: the histstore path that solo bypasses",
			boots: 15, warmup: 100, block: 600, traceReqs: 600,
			planSpace: 18, nodeChoices: []int{1, 2, 4},
			prepare: prepareDurable,
			boot:    bootDurable,
			seq: func(e *env) func(uint64) (int, *reqSpec) {
				var submits, reads []reqSpec
				for _, q := range queryNames {
					submits = append(submits, encodeSubmit("durable", q, [2]float64{1, 1}))
					reads = append(reads, encodeHistoryRead("durable", q, 50))
				}
				return func(i uint64) (int, *reqSpec) {
					h := mix(e.seed, i)
					if h%10 == 0 {
						return 0, &reads[(h/10)%4]
					}
					return 0, &submits[(h/10)%4]
				}
			},
			verify: verifyDurable,
		},
		{
			name:  "cluster3",
			why:   "three replicating nodes, six federations, 2/3 of requests redirected: a second HTTP hop, a WAL append and a synchronous frame ship to the standby per acked write",
			boots: 5, warmup: 100, block: 600, traceReqs: 600,
			planSpace: 18, nodeChoices: []int{1, 2, 4},
			boot: bootCluster,
			seq: func(e *env) func(uint64) (int, *reqSpec) {
				feds := clusterFedNames(e)
				specs := make([]reqSpec, len(feds))
				for i, f := range feds {
					specs[i] = encodeSubmit(f, "Q12", [2]float64{1, 1})
				}
				return func(i uint64) (int, *reqSpec) {
					return int(i % clusterNodes), &specs[mix(e.seed, i)%uint64(len(specs))]
				}
			},
			verify: verifyCluster,
		},
	}
}

// mix hashes request number i under seed (splitmix64), so the request
// mix is a pure function of (-seed, i) at any concurrency.
func mix(seed int64, i uint64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + i + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func clusterFedNames(e *env) []string {
	n := clusterFeds
	if e.smoke {
		n = 2
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	return names
}

// ---------------------------------------------------------------------
// The booted deployment

// node is one server on one loopback listener.
type node struct {
	id, addr string
	srv      *server.Server
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve returned
	late     atomic.Pointer[http.Handler]
	dataDir  string // "" when in memory
}

// stack is a booted deployment and what the checks need to know of it.
type stack struct {
	nodes []*node
	// initial is the history length per "fed/query" before any request.
	initial map[string]int
	builds  int // tenant builds the boot paid for
	// scheds holds the decorated schedulers of a traced stack.
	scheds map[string]*tracedScheduler
	stores []*histstore.Store // stores the benchmark opened itself
	closed bool
}

// listen opens a loopback listener and serves it at once with a
// late-bound handler, because cluster members must know each other's
// address before any of them exists.
func listen(id string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{id: id, addr: ln.Addr().String(), served: make(chan struct{})}
	n.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := n.late.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "booting", http.StatusServiceUnavailable)
	})}
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns ErrServerClosed at teardown
	}()
	return n, nil
}

// serve binds srv to the node, wrapped in the tracer's middleware.
func (n *node) serve(srv *server.Server, tr *tracer) {
	n.srv = srv
	h := tr.middleware(n.id, srv.Handler())
	n.late.Store(&h)
}

// close drains every server, closes every listener and waits for the
// serving goroutines; it is what "the run left nothing behind" means.
func (st *stack) close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, n := range st.nodes {
		if n.srv != nil {
			keep(n.srv.Drain(ctx))
		}
	}
	for _, n := range st.nodes {
		keep(n.hs.Close())
		<-n.served
	}
	for _, s := range st.stores {
		keep(s.Close())
	}
	// The servers' peer client rides the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return first
}

// get issues one GET through the benchmark's client.
func get(addr, path string) (int, []byte, error) {
	c := newClient(nil)
	defer c.close()
	status, _, body, err := c.roundTrip(addr, []byte("GET "+path+" HTTP/1.1\r\nHost: bench\r\n\r\n"))
	return status, append([]byte(nil), body...), err
}

// awaitReady polls /readyz on every node until each answered 200.
func (st *stack) awaitReady() error {
	deadline := time.Now().Add(60 * time.Second)
	c := newClient(nil)
	defer c.close()
	for _, n := range st.nodes {
		for {
			status, _, _, err := c.roundTrip(n.addr, []byte("GET /readyz HTTP/1.1\r\nHost: bench\r\n\r\n"))
			if err == nil && status == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready: status %d, %v", n.id, status, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// tenantSpec is what assemble needs to build one scheduler.
type tenantSpec struct {
	name        string
	wide        int // > 0: federation.WideTopology(seed, wide)
	nodeChoices []int
	bootstrap   int
	queries     []string
}

// tenantSeed is the seed of every tenant: the program under test keeps
// its fixed seed, -seed only shapes the requests.
const tenantSeed = 42

// assemble builds one tenant's scheduler stack exactly as the server's
// buildTenant does — topology, calibration, scaled executor, DREAM
// model, optional durable store, bootstrap up to the shortfall — with
// the tracer's decorators around the executor, the model and the
// scheduler when tr is set.
func assemble(ts tenantSpec, store *histstore.Store, reg *metrics.Registry, tr *tracer) (server.QueryScheduler, error) {
	var fed *federation.Federation
	var err error
	if ts.wide > 0 {
		fed, err = federation.WideTopology(tenantSeed, ts.wide)
	} else {
		fed, err = federation.DefaultTopology(tenantSeed)
	}
	if err != nil {
		return nil, err
	}
	cal, err := federation.Calibrate(fed, 0.004, tenantSeed)
	if err != nil {
		return nil, err
	}
	scaled, err := federation.NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		return nil, err
	}
	dream, err := ires.NewDREAMModel(core.Config{MMax: 3 * (federation.FeatureDim + 2)})
	if err != nil {
		return nil, err
	}
	var exec federation.Executor = scaled
	var model ires.CostModel = dream
	var traced *tracedScheduler
	if tr != nil {
		traced = &tracedScheduler{tr: tr, model: &tracedModel{inner: dream}, exec: &tracedExecutor{inner: scaled, tr: tr}}
		exec, model = traced.exec, traced.model
	}
	cfg := ires.SchedulerConfig{NodeChoices: ts.nodeChoices, Seed: tenantSeed, Metrics: reg, MetricsFederation: ts.name}
	if store != nil {
		cfg.Store = store // assigned only when non-nil: a typed nil would dodge the scheduler's nil check
	}
	sched, err := ires.NewSchedulerWithConfig(fed, exec, model, cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range ts.queries {
		h, err := sched.OpenHistory(mustQuery(name))
		if err != nil {
			return nil, err
		}
		if need := ts.bootstrap - h.Len(); need > 0 {
			if err := sched.Bootstrap(mustQuery(name), need); err != nil {
				return nil, err
			}
		}
	}
	if traced != nil {
		traced.inner = sched
		return traced, nil
	}
	return sched, nil
}

// bootAssembled boots a one-node stack around a scheduler the benchmark
// assembled itself: the sweep workload always, solo and durable when
// traced (the decorators sit inside the stack server.New would build).
func bootAssembled(ts tenantSpec, storeCfg *server.StoreConfig, tr *tracer) (*stack, time.Duration, error) {
	n, err := listen("n0")
	if err != nil {
		return nil, 0, err
	}
	st := &stack{nodes: []*node{n}, initial: make(map[string]int), builds: 1}
	began := time.Now()
	reg := metrics.NewRegistry()
	var store *histstore.Store
	if storeCfg != nil {
		store, err = histstore.Open(filepath.Join(storeCfg.Dir, url.PathEscape(ts.name)), histstore.Options{
			Fsync: storeCfg.Fsync, GroupCommit: storeCfg.GroupCommit, Metrics: reg, MetricsStore: ts.name,
		})
		if err != nil {
			return st, 0, errors.Join(err, st.close())
		}
		st.stores = append(st.stores, store)
		n.dataDir = storeCfg.Dir
	}
	sched, err := assemble(ts, store, reg, tr)
	if err != nil {
		return st, 0, errors.Join(err, st.close())
	}
	if traced, ok := sched.(*tracedScheduler); ok {
		st.scheds = map[string]*tracedScheduler{ts.name: traced}
	}
	queries := make([]tpch.QueryID, len(ts.queries))
	for i, name := range ts.queries {
		queries[i] = mustQuery(name)
	}
	srv, err := server.NewWithSchedulers(server.Config{Metrics: reg}, map[string]server.QueryScheduler{ts.name: sched}, queries)
	if err != nil {
		return st, 0, errors.Join(err, st.close())
	}
	n.serve(srv, tr)
	if err := st.awaitReady(); err != nil {
		return st, 0, errors.Join(err, st.close())
	}
	took := time.Since(began)
	for _, q := range ts.queries {
		st.initial[ts.name+"/"+q] = sched.History(mustQuery(q)).Len()
	}
	return st, took, nil
}

// mustQuery parses one of the benchmark's own query names.
func mustQuery(name string) tpch.QueryID {
	q, err := tpch.ParseQueryID(name)
	if err != nil {
		panic(err)
	}
	return q
}

// bootSpecs boots a one-node stack through server.New, the way midasd
// does.
func bootSpecs(cfg server.Config, bootstrap int) (*stack, time.Duration, error) {
	n, err := listen("n0")
	if err != nil {
		return nil, 0, err
	}
	n.dataDir = cfg.Store.Dir
	st := &stack{nodes: []*node{n}, initial: make(map[string]int), builds: len(cfg.Federations)}
	began := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return st, 0, errors.Join(err, st.close())
	}
	n.serve(srv, nil)
	if err := st.awaitReady(); err != nil {
		return st, 0, errors.Join(err, st.close())
	}
	took := time.Since(began)
	for _, f := range cfg.Federations {
		for _, q := range specQueries(f) {
			st.initial[f.Name+"/"+q] = bootstrap
		}
	}
	return st, took, nil
}

func specQueries(f server.FederationSpec) []string {
	if len(f.Queries) == 0 {
		return queryNames
	}
	return f.Queries
}

// ---------------------------------------------------------------------
// solo and sweep

func bootSolo(e *env, _ int, tr *tracer) (*stack, time.Duration, error) {
	if tr != nil {
		return bootAssembled(tenantSpec{name: "solo", nodeChoices: []int{1, 2, 4}, bootstrap: 20, queries: []string{"Q12"}}, nil, tr)
	}
	return bootSpecs(server.Config{Federations: []server.FederationSpec{{Name: "solo", Queries: []string{"Q12"}}}}, 20)
}

func bootSweep(e *env, _ int, tr *tracer) (*stack, time.Duration, error) {
	return bootAssembled(tenantSpec{name: "sweep", wide: 32, nodeChoices: federation.NodeRange(32), bootstrap: 20, queries: queryNames}, nil, tr)
}

// ---------------------------------------------------------------------
// durable

func durableSeed(e *env) string { return filepath.Join(e.workDir, "durable-seed") }

func (e *env) durableBootstrap() int {
	if e.smoke {
		return 100
	}
	return durableBootstrap
}

// walStore is the store of durable and cluster3: a WAL that survives a
// crash of the process, not of the machine. With fsync on, half of every
// request was the wait for this box's disk, which moved two- to tenfold
// between runs of the same code; what fsync and group commit would add
// is measured by the traced run's append probe instead (README).
func walStore(dir string) server.StoreConfig {
	return server.StoreConfig{Dir: dir}
}

// prepareDurable writes the WAL every timed boot recovers: a populate
// boot without fsync bootstraps each query, and the live directory is
// copied before any Drain, so the copy holds WAL frames only — no
// snapshot — and a boot from it is a full replay.
func prepareDurable(e *env) error {
	dir := filepath.Join(e.workDir, "durable-populate")
	st, _, err := bootSpecs(server.Config{
		Federations: []server.FederationSpec{{Name: "durable", Bootstrap: e.durableBootstrap()}},
		Store:       server.StoreConfig{Dir: dir},
	}, e.durableBootstrap())
	if err != nil {
		return fmt.Errorf("populate boot: %w", err)
	}
	err = copyDir(dir, durableSeed(e))
	return errors.Join(err, st.close(), os.RemoveAll(dir))
}

func bootDurable(e *env, attempt int, tr *tracer) (*stack, time.Duration, error) {
	dir := filepath.Join(e.workDir, fmt.Sprintf("durable-%d", attempt))
	if err := copyDir(durableSeed(e), dir); err != nil {
		return nil, 0, err
	}
	store := walStore(dir)
	if tr != nil {
		return bootAssembled(tenantSpec{name: "durable", nodeChoices: []int{1, 2, 4}, bootstrap: e.durableBootstrap(), queries: queryNames}, &store, tr)
	}
	return bootSpecs(server.Config{
		Federations: []server.FederationSpec{{Name: "durable", Bootstrap: e.durableBootstrap()}},
		Store:       store,
	}, e.durableBootstrap())
}

// verifyDurable copies the live data directory after the last ack —
// no Drain, so exactly what a crash would leave — boots a fresh server
// from the copy and requires every acked submit to be there.
func verifyDurable(e *env, st *stack, acked map[string]int) error {
	dir := filepath.Join(e.workDir, "durable-crash")
	if err := copyDir(st.nodes[0].dataDir, dir); err != nil {
		return err
	}
	crash, _, err := bootSpecs(server.Config{
		Federations: []server.FederationSpec{{Name: "durable", Bootstrap: e.durableBootstrap()}},
		Store:       walStore(dir),
	}, 0)
	if err != nil {
		return fmt.Errorf("boot from crash copy: %w", err)
	}
	var errs []error
	for key, initial := range st.initial {
		fed, q := cutKey(key)
		n, err := historyLen(crash.nodes[0].addr, fed, q)
		if err != nil {
			errs = append(errs, err)
		} else if want := initial + acked[key]; n < want {
			errs = append(errs, fmt.Errorf("crash copy recovered %d observations of %s, %d were acked", n, key, want))
		}
	}
	return errors.Join(append(errs, crash.close(), os.RemoveAll(dir))...)
}

// ---------------------------------------------------------------------
// cluster3

func bootCluster(e *env, attempt int, tr *tracer) (*stack, time.Duration, error) {
	st := &stack{initial: make(map[string]int)}
	members := make([]cluster.Member, clusterNodes)
	for i := range members {
		n, err := listen(fmt.Sprintf("n%d", i))
		if err != nil {
			return st, 0, errors.Join(err, st.close())
		}
		n.dataDir = filepath.Join(e.workDir, fmt.Sprintf("cluster-%d-%s", attempt, n.id))
		st.nodes = append(st.nodes, n)
		members[i] = cluster.Member{ID: n.id, Addr: "http://" + n.addr}
	}
	var specs []server.FederationSpec
	for _, f := range clusterFedNames(e) {
		specs = append(specs, server.FederationSpec{Name: f, Queries: []string{"Q12"}})
		st.initial[f+"/Q12"] = 20
	}
	began := time.Now()
	for _, n := range st.nodes {
		srv, err := server.New(server.Config{
			Federations: specs,
			Store:       walStore(n.dataDir),
			Cluster: &server.ClusterConfig{
				NodeID: n.id, Peers: members, Replicate: true,
				// The standby sync loop arms replication on its first
				// tick; the default 2 s would be idle waiting per boot.
				SyncInterval: 100 * time.Millisecond,
			},
		})
		if err != nil {
			return st, 0, errors.Join(err, st.close())
		}
		n.serve(srv, tr)
		st.builds += len(specs)
	}
	if err := st.awaitReady(); err != nil {
		return st, 0, errors.Join(err, st.close())
	}
	took := time.Since(began)
	// Untimed: until every owned shard streams to its standby, an acked
	// write is on one disk only and ships no frame.
	if err := st.awaitStreaming(); err != nil {
		return st, 0, errors.Join(err, st.close())
	}
	return st, took, nil
}

func (st *stack) awaitStreaming() error {
	deadline := time.Now().Add(60 * time.Second)
	for _, n := range st.nodes {
		for {
			var health server.ClusterHealthResponse
			err := getJSON(n.addr, "/v1/cluster/health", &health)
			streaming := err == nil
			for _, state := range health.Replication {
				streaming = streaming && state == "streaming"
			}
			if streaming {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: replication not streaming: %v %v", n.id, health.Replication, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// owners asks every node for its routing table and returns the owner of
// each federation, failing when two nodes disagree.
func (st *stack) owners() (map[string]string, error) {
	owners := make(map[string]string)
	for _, n := range st.nodes {
		var table server.ClusterResponse
		if err := getJSON(n.addr, "/v1/cluster", &table); err != nil {
			return nil, err
		}
		for fed, p := range table.Placements {
			if prev, ok := owners[fed]; ok && prev != p.Owner {
				return nil, fmt.Errorf("federation %s: %s says owner %s, another node says %s", fed, n.id, p.Owner, prev)
			}
			owners[fed] = p.Owner
		}
	}
	return owners, nil
}

// verifyCluster requires replication never to have degraded, at least
// one frame shipped per acked write, and one owner per federation in
// every node's table.
func verifyCluster(e *env, st *stack, acked map[string]int) error {
	if _, err := st.owners(); err != nil {
		return err
	}
	sc, err := st.scrape()
	if err != nil {
		return err
	}
	total := sumAcked(acked)
	var errs []error
	if d := sc.sum("midas_cluster_replication_degraded_total"); d != 0 {
		errs = append(errs, fmt.Errorf("replication degraded %v times", d))
	}
	if shipped := sc.sum("midas_cluster_frames_shipped_total"); shipped < float64(total) {
		errs = append(errs, fmt.Errorf("%v frames shipped for %d acked writes", shipped, total))
	}
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------
// Reading the running system

func getJSON(addr, path string, v any) error {
	status, body, err := get(addr, path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// historyLen reads the full length of one history.
func historyLen(addr, fed, query string) (int, error) {
	var h server.HistoryResponse
	err := getJSON(addr, "/v1/history/"+query+"?limit=1&federation="+url.QueryEscape(fed), &h)
	return h.Len, err
}

// addrOf returns the address of the node that serves fed: the only one
// in a one-node stack, the routing table's owner in a cluster.
func (st *stack) addrOf(fed string) (string, error) {
	if len(st.nodes) == 1 {
		return st.nodes[0].addr, nil
	}
	owners, err := st.owners()
	if err != nil {
		return "", err
	}
	for _, n := range st.nodes {
		if n.id == owners[fed] {
			return n.addr, nil
		}
	}
	return "", fmt.Errorf("federation %s has no owner", fed)
}

// checkHistories requires every history to hold exactly its initial
// observations plus one per acked submit.
func (st *stack) checkHistories(acked map[string]int) error {
	keys := make([]string, 0, len(st.initial))
	for k := range st.initial {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var errs []error
	for _, key := range keys {
		fed, q := cutKey(key)
		addr, err := st.addrOf(fed)
		if err != nil {
			return err
		}
		n, err := historyLen(addr, fed, q)
		if err != nil {
			errs = append(errs, err)
		} else if want := st.initial[key] + acked[key]; n != want {
			errs = append(errs, fmt.Errorf("history %s holds %d observations, want %d initial + %d acked", key, n, st.initial[key], acked[key]))
		}
	}
	return errors.Join(errs...)
}

// cutKey splits a "fed/query" key; query names hold no slash.
func cutKey(key string) (fed, query string) {
	i := strings.LastIndexByte(key, '/')
	return key[:i], key[i+1:]
}

// scrape is the sum of every node's /metrics, by series identity.
type scrape map[string]float64

func (st *stack) scrape() (scrape, error) {
	out := make(scrape)
	for _, n := range st.nodes {
		status, body, err := get(n.addr, "/metrics")
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET /metrics: status %d", status)
		}
		parsed, err := metrics.ParseText(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for id, v := range parsed.Values {
			out[id] += v
		}
	}
	return out, nil
}

// sum adds up every series of one family (name without labels; pass
// the _sum or _count name for a histogram's totals).
func (s scrape) sum(family string) float64 {
	total := 0.0
	for id, v := range s {
		if name, _, _ := strings.Cut(id, "{"); name == family {
			total += v
		}
	}
	return total
}

// stats sums /v1/stats over every node and federation.
func (st *stack) stats() (server.FederationStats, error) {
	var total server.FederationStats
	for _, n := range st.nodes {
		var resp server.StatsResponse
		if err := getJSON(n.addr, "/v1/stats", &resp); err != nil {
			return total, err
		}
		for _, f := range resp.Federations {
			total.Received += f.Received
			total.Completed += f.Completed
			total.Failed += f.Failed
			total.Rejected += f.Rejected
			total.Timeouts += f.Timeouts
			total.Coalesced += f.Coalesced
			total.Sweeps += f.Sweeps
			total.PlansEstimated += f.PlansEstimated
		}
	}
	return total, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
