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
// re-paying cold-start bootstrap sweeps. -wal-fsync trades append
// throughput for durability against machine (not just process) crashes;
// -wal-group-commit buys the same durability at a fraction of the cost
// by coalescing concurrent appends onto shared fsyncs — no response
// leaves the daemon before the fsync covering its recorded execution
// returns.
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

func run() error {
	var (
		addr       = flag.String("addr", ":8642", "listen address")
		configPath = flag.String("config", "", "JSON federation config; overrides the single-federation flags")

		name        = flag.String("name", "default", "federation name (single-federation mode)")
		topology    = flag.String("topology", "default", "topology: default or threecloud")
		seed        = flag.Int64("seed", 42, "base random seed")
		sf          = flag.Float64("sf", 0.1, "simulated data scale (0.1 ≈ 100 MiB)")
		calibSF     = flag.Float64("calib-sf", 0.004, "calibration scale factor")
		cacheSize   = flag.Int("cache-size", 0, "model cache size (0 = default, negative disables)")
		nodeChoices = flag.String("node-choices", "1,2,4", "comma-separated cluster-size menu (no duplicates)")
		bootstrap   = flag.Int("bootstrap", 20, "bootstrap executions per served query")
		queries     = flag.String("queries", "", "comma-separated query subset (default: all)")
		prunePolicy = flag.String("prune-policy", "full", "plan-sweep prune policy: full (estimate every QEP), greedy (cost-ordered walk with early termination), topk (deterministic sample)")
		pruneBudget = flag.Int("prune-budget", 0, "max QEPs estimated per sweep for greedy/topk (0 = policy default)")
		chaos       = flag.String("chaos", "", "fault-injection profile applied to the simulated cloud after bootstrap: "+strings.Join(cloud.ChaosProfileNames(), ", "))
		chaosSeed   = flag.Int64("chaos-seed", 0, "seed for the fault schedule (0 = -seed)")

		queueDepth     = flag.Int("queue-depth", 1024, "bounded admission queue depth")
		requestTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request budget, plan sweep included (exceeded → 504)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")

		dataDir            = flag.String("data-dir", "", "root directory for durable query histories (empty = in-memory only)")
		checkpointInterval = flag.Duration("checkpoint-interval", time.Minute, "periodic WAL fsync: bounds what a machine crash can lose without -wal-fsync/-wal-group-commit, a no-op with either; 0 disables the timer (requires -data-dir)")
		walFsync           = flag.Bool("wal-fsync", false, "fsync the history WAL after every recorded execution (requires -data-dir)")
		walGroupCommit     = flag.Bool("wal-group-commit", false, "coalesce WAL fsyncs across concurrent appends: per-append durability at a fraction of -wal-fsync's cost (requires -data-dir; supersedes -wal-fsync)")

		nodeID        = flag.String("node-id", "", "this node's name in -cluster-peers (cluster mode)")
		clusterPeers  = flag.String("cluster-peers", "", `cluster membership as "id=url,id=url,..." including this node; empty = standalone`)
		replicate     = flag.Bool("cluster-replicate", false, "ship each owned federation's WAL to its standby synchronously")
		syncInterval  = flag.Duration("cluster-sync-interval", 2*time.Second, "cadence of the standby sync loop: re-arms degraded replication streams with a full shard sync (requires -cluster-replicate)")
		autoFailover  = flag.Bool("cluster-auto-failover", false, "probe peers and auto-promote this node's standby federations when their owner is confirmed dead")
		probeInterval = flag.Duration("cluster-probe-interval", time.Second, "failure-detector probe cadence and per-probe deadline (requires -cluster-auto-failover)")
		suspectAfter  = flag.Int("cluster-suspect-after", 3, "consecutive probe misses before a peer is suspect (pauses rebalancing)")
		downAfter     = flag.Int("cluster-down-after", 6, "consecutive probe misses before a peer is declared dead (triggers auto-failover)")
		autoRebalance = flag.Bool("cluster-auto-rebalance", false, "drift federations back to their ring-computed owners after membership settles (requires -cluster-auto-failover)")

		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug enables per-request lines)")
		debugAddr = flag.String("debug-addr", "", "optional second listener with net/http/pprof and /metrics (keep it private)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	specs, err := federationSpecs(*configPath, *name, *topology, *seed, *sf, *calibSF,
		*cacheSize, *nodeChoices, *bootstrap, *queries, *prunePolicy, *pruneBudget,
		*chaos, *chaosSeed)
	if err != nil {
		return err
	}

	if *dataDir == "" && (*walFsync || *walGroupCommit || *checkpointInterval != time.Minute) {
		logger.Warn("-wal-fsync/-wal-group-commit/-checkpoint-interval have no effect without -data-dir")
	}
	var storeCfg server.StoreConfig
	if *dataDir != "" {
		storeCfg = server.StoreConfig{
			Dir:                *dataDir,
			CheckpointInterval: *checkpointInterval,
			Fsync:              *walFsync,
			GroupCommit:        *walGroupCommit,
		}
		logger.Info("durable histories enabled",
			"data_dir", *dataDir, "checkpoint_interval", checkpointInterval.String(),
			"wal_fsync", *walFsync, "wal_group_commit", *walGroupCommit)
	}

	clusterCfg, err := parseClusterFlags(*nodeID, *clusterPeers, *replicate, *syncInterval)
	if err != nil {
		return err
	}
	if clusterCfg == nil && (*autoFailover || *autoRebalance) {
		return fmt.Errorf("-cluster-auto-failover/-cluster-auto-rebalance require -cluster-peers")
	}
	if *autoRebalance && !*autoFailover {
		return fmt.Errorf("-cluster-auto-rebalance requires -cluster-auto-failover (the rebalancer rides the failure detector)")
	}
	if clusterCfg != nil {
		clusterCfg.AutoFailover = *autoFailover
		clusterCfg.AutoRebalance = *autoRebalance
		clusterCfg.ProbeInterval = *probeInterval
		clusterCfg.SuspectAfter = *suspectAfter
		clusterCfg.DownAfter = *downAfter
		logger.Info("cluster mode", "node", clusterCfg.NodeID,
			"peers", len(clusterCfg.Peers), "replicate", clusterCfg.Replicate,
			"auto_failover", *autoFailover, "auto_rebalance", *autoRebalance)
	}

	logger.Info("building federations (calibration + recovery + bootstrap)", "count", len(specs))
	began := time.Now()
	srv, err := server.New(server.Config{
		Federations:    specs,
		QueueDepth:     *queueDepth,
		RequestTimeout: *requestTimeout,
		Store:          storeCfg,
		Cluster:        clusterCfg,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	logger.Info("federations ready", "elapsed_s", time.Since(began).Seconds())

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugMux(srv)}
		go func() {
			logger.Info("debug listener (pprof + metrics)", "addr", *debugAddr)
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
		logger.Info("draining", "signal", sig.String(), "budget", drainTimeout.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
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
// single-federation flags. With -config, per-federation "prune_policy"
// and "prune_budget" JSON fields override the flags (which apply only
// to the single-federation mode).
func federationSpecs(configPath, name, topology string, seed int64, sf, calibSF float64,
	cacheSize int, nodeChoices string, bootstrap int, queries,
	prunePolicy string, pruneBudget int, chaos string, chaosSeed int64) ([]server.FederationSpec, error) {
	if configPath != "" {
		specs, err := server.LoadSpecsFile(configPath)
		if err != nil {
			return nil, err
		}
		if len(specs) == 0 {
			return nil, fmt.Errorf("config %s declares no federations", configPath)
		}
		return specs, nil
	}
	nodes, err := parseInts(nodeChoices)
	if err != nil {
		return nil, fmt.Errorf("bad -node-choices: %w", err)
	}
	spec := server.FederationSpec{
		Name:        name,
		Topology:    topology,
		Seed:        seed,
		SF:          sf,
		CalibSF:     calibSF,
		CacheSize:   cacheSize,
		NodeChoices: nodes,
		Bootstrap:   bootstrap,
		PrunePolicy: prunePolicy,
		PruneBudget: pruneBudget,
		Chaos:       chaos,
		ChaosSeed:   chaosSeed,
	}
	if queries != "" {
		spec.Queries = strings.Split(queries, ",")
	}
	return []server.FederationSpec{spec}, nil
}

// parseClusterFlags resolves -node-id/-cluster-peers into a cluster
// config; both empty means standalone.
func parseClusterFlags(nodeID, peers string, replicate bool, syncInterval time.Duration) (*server.ClusterConfig, error) {
	if peers == "" {
		if nodeID != "" {
			return nil, fmt.Errorf("-node-id requires -cluster-peers")
		}
		return nil, nil
	}
	if nodeID == "" {
		return nil, fmt.Errorf("-cluster-peers requires -node-id")
	}
	cfg := &server.ClusterConfig{
		NodeID:       nodeID,
		Replicate:    replicate,
		SyncInterval: syncInterval,
	}
	for _, part := range strings.Split(peers, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf(`bad -cluster-peers entry %q (want "id=url")`, part)
		}
		cfg.Peers = append(cfg.Peers, cluster.Member{ID: id, Addr: strings.TrimRight(url, "/")})
	}
	return cfg, nil
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
