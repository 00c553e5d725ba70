// Command midasd is the long-running federation query service: it
// hosts one or more named federations behind the HTTP/JSON API of
// internal/server and serves scheduling rounds until told to stop.
//
// Usage:
//
//	midasd [flags]
//
// With -config, the hosted federations come from a JSON file (either a
// bare array of specs or {"federations": [...]}); otherwise a single
// federation is assembled from the flags. SIGINT/SIGTERM drain
// gracefully: health flips to 503, in-flight requests finish, then the
// process exits 0.
//
// With -data-dir, every query history is durable: recorded executions
// are written ahead to a per-query WAL under that directory, fsynced
// every -checkpoint-interval (and at drain, and via POST
// /v1/admin/checkpoint), and replayed on the next boot — a restarted
// daemon estimates from exactly the history it had, instead of
// re-paying cold-start bootstrap sweeps. With -wal-fsync no response
// leaves the daemon before an fsync covering its recorded execution
// returns — durability against machine (not just process) crashes, the
// fsync issued by whichever request is waiting and shared by all that
// are.
//
// With -chaos, a named fault-injection profile (site outages,
// stragglers, price spikes, autoscaling resizes — see
// docs/operations.md) is attached to the simulated cloud after
// bootstrap; -chaos-seed makes the fault schedule replayable
// independently of the topology seed.
//
// Observability: the daemon logs structured JSON (log/slog) to stderr
// — request-scoped lines carry federation, query, decision, status and
// duration, and -log-level debug turns per-request logging on — and
// serves Prometheus metrics at GET /metrics (request latency
// histograms, sweep/model-cache counters, WAL health; see
// docs/operations.md for how to read them). -debug-addr additionally
// exposes net/http/pprof and a second /metrics on a separate,
// firewall-able listener.
//
// Example:
//
//	midasd -addr :8642 -sf 0.1 -bootstrap 20 -data-dir /var/lib/midasd &
//	curl -s localhost:8642/healthz
//	curl -s -X POST localhost:8642/v1/queries \
//	     -d '{"query": "Q12", "weights": [1, 1]}'
//	curl -s localhost:8642/metrics | grep midas_request_duration
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "midasd: %v\n", err)
		os.Exit(1)
	}
}

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown -log-level %q (debug, info, warn, error)", s)
	}
}

// options holds the value of every midasd flag: in the configuration
// field it sets where that is a plain value, as text where it is parsed.
type options struct {
	addr, configPath, logLevel, debugAddr string
	drainTimeout                          time.Duration

	server  server.Config         // QueueDepth, RequestTimeout
	spec    server.FederationSpec // the single-federation flags
	store   server.StoreConfig
	cluster server.ClusterConfig

	nodeChoices, queries, clusterPeers string // → spec.NodeChoices, spec.Queries, cluster.Peers
}

// newFlagSet defines every midasd flag, bound to o. The flag tables of
// docs/operations.md list exactly this set (TestFlagsMatchRunbook).
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("midasd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8642", "listen address")
	fs.StringVar(&o.configPath, "config", "", "JSON federation config; overrides the single-federation flags")

	fs.StringVar(&o.spec.Name, "name", "default", "federation name (single-federation mode)")
	fs.StringVar(&o.spec.Topology, "topology", "default", "topology: default or threecloud")
	fs.Int64Var(&o.spec.Seed, "seed", 42, "base random seed")
	fs.Float64Var(&o.spec.SF, "sf", 0.1, "simulated data scale (0.1 ≈ 100 MiB)")
	fs.StringVar(&o.nodeChoices, "node-choices", "1,2,4", "comma-separated cluster-size menu (no duplicates)")
	fs.IntVar(&o.spec.Bootstrap, "bootstrap", 20, "bootstrap executions per served query")
	fs.StringVar(&o.queries, "queries", "", "comma-separated query subset (default: all)")
	fs.StringVar(&o.spec.Chaos, "chaos", "", "fault-injection profile applied to the simulated cloud after bootstrap: "+strings.Join(cloud.ChaosProfileNames(), ", "))
	fs.Int64Var(&o.spec.ChaosSeed, "chaos-seed", 0, "seed for the fault schedule (0 = -seed)")

	fs.IntVar(&o.server.QueueDepth, "queue-depth", 1024, "bounded admission queue depth")
	fs.DurationVar(&o.server.RequestTimeout, "request-timeout", 30*time.Second, "per-request budget, plan sweep included (exceeded → 504)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown budget")

	fs.StringVar(&o.store.Dir, "data-dir", "", "root directory for durable query histories (empty = in-memory only)")
	fs.DurationVar(&o.store.CheckpointInterval, "checkpoint-interval", time.Minute, "periodic WAL fsync: bounds what a machine crash can lose without -wal-fsync, a no-op with it; 0 disables the timer (requires -data-dir)")
	fs.BoolVar(&o.store.Fsync, "wal-fsync", false, "send no response before a WAL fsync covers its recorded execution; concurrent requests share one fsync (requires -data-dir)")

	fs.StringVar(&o.cluster.NodeID, "node-id", "", "this node's name in -cluster-peers (cluster mode)")
	fs.StringVar(&o.clusterPeers, "cluster-peers", "", `cluster membership as "id=url,id=url,..." including this node; empty = standalone`)
	fs.BoolVar(&o.cluster.Replicate, "cluster-replicate", false, "ship each owned federation's WAL to its standby synchronously")
	fs.DurationVar(&o.cluster.SyncInterval, "cluster-sync-interval", 2*time.Second, "cadence of the control loop: a pass every ½–1½ intervals (jittered) re-arms degraded replication streams with a full shard sync (with -cluster-replicate), settles, demotes, promotes, rebalances and exchanges routing tables until every peer has the node's current one")
	fs.BoolVar(&o.cluster.AutoFailover, "cluster-auto-failover", false, "probe peers and auto-promote this node's standby federations when their owner is confirmed dead")
	fs.DurationVar(&o.cluster.ProbeInterval, "cluster-probe-interval", time.Second, "failure-detector probe cadence and per-probe deadline (requires -cluster-auto-failover)")
	fs.IntVar(&o.cluster.SuspectAfter, "cluster-suspect-after", 3, "consecutive probe misses before a peer is suspect (pauses rebalancing)")
	fs.IntVar(&o.cluster.DownAfter, "cluster-down-after", 6, "consecutive probe misses before a peer is declared dead (triggers auto-failover)")
	fs.BoolVar(&o.cluster.AutoRebalance, "cluster-auto-rebalance", false, "drift federations back to their ring-computed owners after membership settles (requires -cluster-auto-failover)")

	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, error (debug enables per-request lines)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "optional second listener with net/http/pprof and /metrics (keep it private)")
	return fs
}

func run() error {
	var o options
	fs := newFlagSet(&o)
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag itself
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	level, err := parseLogLevel(o.logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	cfg := o.server
	cfg.Logger = logger
	if cfg.Federations, err = federationSpecs(&o); err != nil {
		return err
	}

	if o.store.Dir != "" {
		cfg.Store = o.store
		logger.Info("durable histories enabled",
			"data_dir", o.store.Dir, "checkpoint_interval", o.store.CheckpointInterval.String(),
			"wal_fsync", o.store.Fsync)
	} else if o.store.Fsync || o.store.CheckpointInterval != time.Minute {
		logger.Warn("-wal-fsync/-checkpoint-interval have no effect without -data-dir")
	}

	if cfg.Cluster, err = clusterConfig(&o); err != nil {
		return err
	}
	if c := cfg.Cluster; c != nil {
		logger.Info("cluster mode", "node", c.NodeID,
			"peers", len(c.Peers), "replicate", c.Replicate,
			"auto_failover", c.AutoFailover, "auto_rebalance", c.AutoRebalance)
	}

	logger.Info("building federations (calibration + recovery + bootstrap)", "count", len(cfg.Federations))
	began := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	logger.Info("federations ready", "elapsed_s", time.Since(began).Seconds())

	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", o.addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	var debugSrv *http.Server
	if o.debugAddr != "" {
		debugSrv = &http.Server{Addr: o.debugAddr, Handler: debugMux(srv)}
		go func() {
			logger.Info("debug listener (pprof + metrics)", "addr", o.debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				// The debug listener is an operator convenience; losing
				// it should not take the serving process down.
				logger.Warn("debug listener failed", "error", err.Error())
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		logger.Info("draining", "signal", sig.String(), "budget", o.drainTimeout.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	if drainErr != nil {
		return drainErr
	}
	logger.Info("drained cleanly")
	return nil
}

// debugMux assembles the -debug-addr handler: the pprof suite plus a
// second /metrics, so profiling and scraping can live on a private
// listener while the serving port stays exposed.
func debugMux(srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", srv.Metrics().Handler())
	return mux
}

// federationSpecs resolves the hosted federations from -config or the
// single-federation flags.
func federationSpecs(o *options) ([]server.FederationSpec, error) {
	if o.configPath != "" {
		specs, err := server.LoadSpecsFile(o.configPath)
		if err != nil {
			return nil, err
		}
		if len(specs) == 0 {
			return nil, fmt.Errorf("config %s declares no federations", o.configPath)
		}
		return specs, nil
	}
	spec := o.spec
	var err error
	if spec.NodeChoices, err = parseInts(o.nodeChoices); err != nil {
		return nil, fmt.Errorf("bad -node-choices: %w", err)
	}
	if o.queries != "" {
		spec.Queries = strings.Split(o.queries, ",")
	}
	return []server.FederationSpec{spec}, nil
}

// clusterConfig resolves the cluster flags; no -node-id and no
// -cluster-peers means standalone (nil).
func clusterConfig(o *options) (*server.ClusterConfig, error) {
	if o.clusterPeers == "" {
		if o.cluster.NodeID != "" {
			return nil, fmt.Errorf("-node-id requires -cluster-peers")
		}
		if o.cluster.AutoFailover || o.cluster.AutoRebalance {
			return nil, fmt.Errorf("-cluster-auto-failover/-cluster-auto-rebalance require -cluster-peers")
		}
		return nil, nil
	}
	if o.cluster.NodeID == "" {
		return nil, fmt.Errorf("-cluster-peers requires -node-id")
	}
	cfg := o.cluster
	for _, part := range strings.Split(o.clusterPeers, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf(`bad -cluster-peers entry %q (want "id=url")`, part)
		}
		cfg.Peers = append(cfg.Peers, cluster.Member{ID: id, Addr: strings.TrimRight(url, "/")})
	}
	return &cfg, nil
}

func parseInts(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
