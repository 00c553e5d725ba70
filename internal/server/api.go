package server

// Wire types of the HTTP/JSON API. cmd/midasload and external clients
// marshal the same structs, so the contract lives in one place.

import "repro/internal/cluster"

// QueryRequest is the body of POST /v1/queries: which query to run on
// which federation, under what policy.
type QueryRequest struct {
	// Federation names the target tenant; empty selects the sole
	// registered federation (an error when several are hosted).
	Federation string `json:"federation,omitempty"`
	// Query is the TPC-H query name: "Q12", "q13" or plain "14".
	Query string `json:"query"`
	// Weights and Constraints are Algorithm 2's user policy: weighted-
	// sum preferences over (time, money) and optional per-metric upper
	// bounds. Empty weights default to {1, 1}.
	Weights     []float64 `json:"weights,omitempty"`
	Constraints []float64 `json:"constraints,omitempty"`
	// Strategy selects the Pareto-set selection rule: "" or "weighted"
	// (Algorithm 2), "knee", or "lex".
	Strategy string `json:"strategy,omitempty"`
	// LexOrder and LexTolerance configure the "lex" strategy.
	LexOrder     []int   `json:"lex_order,omitempty"`
	LexTolerance float64 `json:"lex_tolerance,omitempty"`
	// TimeoutMS caps this request's wait for its plan sweep; 0 uses the
	// server default. Expiry returns 504. Execution of the chosen plan
	// begins only while the budget is live but, once begun, runs to
	// completion (the measurement is recorded either way).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PlanJSON describes one chosen QEP.
type PlanJSON struct {
	Query      string `json:"query"`
	JoinAtLeft bool   `json:"join_at_left"`
	NodesLeft  int    `json:"nodes_left"`
	NodesRight int    `json:"nodes_right"`
}

// QueryResponse reports one completed scheduling round.
type QueryResponse struct {
	Federation string   `json:"federation"`
	Query      string   `json:"query"`
	Plan       PlanJSON `json:"plan"`
	// EstimatedTimeS/EstimatedUSD are the Modelling module's predicted
	// costs for the chosen plan; MeasuredTimeS/MeasuredUSD what the
	// execution actually cost.
	EstimatedTimeS float64 `json:"estimated_time_s"`
	EstimatedUSD   float64 `json:"estimated_usd"`
	MeasuredTimeS  float64 `json:"measured_time_s"`
	MeasuredUSD    float64 `json:"measured_usd"`
	// ParetoSize and PlanSpace size the Pareto set and the full QEP
	// lattice the choice was made from; PlansEstimated counts the QEPs
	// the Modelling module actually scored for this round's sweep
	// (equal to PlanSpace under the "full" prune policy — all midasd
	// itself runs — smaller when an embedder's scheduler prunes).
	ParetoSize     int `json:"pareto_size"`
	PlanSpace      int `json:"plan_space"`
	PlansEstimated int `json:"plans_estimated"`
	// PrunePolicy names the prune policy that shaped this round's sweep.
	PrunePolicy string `json:"prune_policy"`
	// Coalesced reports whether this request shared another request's
	// plan sweep instead of running its own.
	Coalesced bool `json:"coalesced"`
	// LatencyMS is the server-side wall time of the round.
	LatencyMS float64 `json:"latency_ms"`
	// Node and Epoch stamp cluster-mode responses with the serving
	// member and its routing-table epoch, so clients (midasload's
	// per-node breakdown, debugging) can attribute every decision.
	// Absent in standalone mode.
	Node  string `json:"node,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// ObservationJSON is one recorded execution.
type ObservationJSON struct {
	X     []float64 `json:"x"`
	Costs []float64 `json:"costs"`
}

// HistoryResponse is the body of GET /v1/history/{query}. Observations
// are most recent first, paged by ?limit= (default 500) and ?offset=
// (entries to skip from the newest end). Len counts every observation
// ever recorded and Base is the index of the oldest one still held
// (historyRetain drops older ones), so pages remain while
// offset+len(observations) < Len-Base. Truncated flags a page that
// stopped short of observation 0 for either reason: the limit, or Base.
type HistoryResponse struct {
	Federation   string            `json:"federation"`
	Query        string            `json:"query"`
	Len          int               `json:"len"`
	Base         int               `json:"base"`
	Offset       int               `json:"offset"`
	Truncated    bool              `json:"truncated"`
	Metrics      []string          `json:"metrics"`
	Observations []ObservationJSON `json:"observations"`
}

// CheckpointResponse is the body of POST /v1/admin/checkpoint: per
// federation, "ok" or the checkpoint error.
type CheckpointResponse struct {
	Federations map[string]string `json:"federations"`
}

// FederationStats is one tenant's slice of GET /v1/stats.
type FederationStats struct {
	// Counters over the server's lifetime.
	Received  int64 `json:"received"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
	Timeouts  int64 `json:"timeouts"`
	// Coalesced counts requests that joined another request's sweep;
	// Sweeps the plan sweeps actually run. Completed - Sweeps requests
	// were served without paying for estimation.
	Coalesced int64 `json:"coalesced"`
	Sweeps    int64 `json:"sweeps"`
	// PlansEstimated totals the QEPs scored by this tenant's Modelling
	// module across all sweeps (after pruning); PlanSpace is the full
	// lattice size of the most recent sweep, so PlanSpace×Sweeps vs
	// PlansEstimated reads the realized pruning ratio.
	PlansEstimated int64 `json:"plans_estimated"`
	PlanSpace      int64 `json:"plan_space"`
	// HistoryTruncated counts /v1/history responses that stopped short
	// of observation 0, by `limit` or at `base`.
	HistoryTruncated int64 `json:"history_truncated"`
	// Checkpoints and CheckpointFailures count history WAL fsyncs
	// (periodic, admin-triggered and drain-time).
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// Latency percentiles (ms) over the most recent completions.
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeS     float64                    `json:"uptime_s"`
	Draining    bool                       `json:"draining"`
	Federations map[string]FederationStats `json:"federations"`
}

// ErrorResponse carries a non-2xx outcome.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ClusterResponse is the body of GET /v1/cluster: the routing table a
// client needs to send each federation's requests straight to its
// owner. Epoch orders tables; a client holding two should trust the
// higher one.
type ClusterResponse struct {
	Node       string                      `json:"node"`
	Epoch      uint64                      `json:"epoch"`
	Members    []cluster.Member            `json:"members"`
	Placements map[string]ClusterPlacement `json:"placements"`
}

// ClusterPlacement locates one federation: its owning member, its
// standby (absent in a single-member cluster) and the *local* tenant
// state on the answering node.
type ClusterPlacement struct {
	Owner   string `json:"owner"`
	Standby string `json:"standby,omitempty"`
	State   string `json:"state"`
}

// RouteUpdate is the body of POST /v1/admin/route (table gossip) and
// its response: an epoch plus the override set that moves federations
// off their ring placement. Higher epoch wins.
type RouteUpdate struct {
	Epoch     uint64            `json:"epoch"`
	Overrides map[string]string `json:"overrides,omitempty"`
}

// HandoffResponse reports a completed handoff or takeover:
// Observations maps each query to the history length that moved.
type HandoffResponse struct {
	Federation   string         `json:"federation"`
	From         string         `json:"from,omitempty"`
	To           string         `json:"to"`
	Epoch        uint64         `json:"epoch"`
	Observations map[string]int `json:"observations,omitempty"`
	DurationMS   float64        `json:"duration_ms,omitempty"`
}

// ClusterHealthResponse is the body of GET /v1/cluster/health — the
// failure detector's probe target. Replication maps each federation
// *actively served by the answering node* to its outbound replication
// health ("streaming", "arming", "degraded", "off"); a probing standby
// caches it as the eligibility record for auto-promotion after this
// node dies. Peers is the answering node's own detector view (absent
// when auto-failover is off there).
type ClusterHealthResponse struct {
	Node        string                    `json:"node"`
	Epoch       uint64                    `json:"epoch"`
	Replication map[string]string         `json:"replication,omitempty"`
	Peers       map[string]PeerHealthJSON `json:"peers,omitempty"`
}

// PeerHealthJSON is one peer's detector state as reported over HTTP.
type PeerHealthJSON struct {
	Status string  `json:"status"`
	Misses int     `json:"misses,omitempty"`
	RTTMS  float64 `json:"rtt_ms,omitempty"`
}
