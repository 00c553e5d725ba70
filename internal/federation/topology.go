package federation

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/engine"
)

// twoSites is DefaultTopology's deployment, the one every topology here
// starts from, with clusters of up to hiveNodes and pgNodes VMs.
func twoSites(seed int64, hiveNodes, pgNodes int) Config {
	hiveSite := &Site{
		Name:     "hive-aws",
		Provider: cloud.Amazon(),
		Engine:   engine.Hive(),
		Instance: "a1.xlarge",
		MaxNodes: hiveNodes,
		Load:     cloud.NewLoadProcess(seed + 1),
	}
	pgSite := &Site{
		Name:     "postgres-azure",
		Provider: cloud.Microsoft(),
		Engine:   engine.Postgres(),
		Instance: "B2MS",
		MaxNodes: pgNodes,
		Load:     cloud.NewLoadProcess(seed + 2),
	}
	return Config{
		Sites: []*Site{hiveSite, pgSite},
		Catalog: map[string]string{
			"lineitem": hiveSite.Name,
			"customer": hiveSite.Name,
			"orders":   pgSite.Name,
			"part":     pgSite.Name,
		},
		DefaultLink: cloud.Link{BandwidthMiBps: 110, LatencyS: 0.07},
		Seed:        seed + 3,
	}
}

// DefaultTopology reproduces the paper's experimental setup as a
// two-site federation: a Hive deployment (on Amazon instances) holding
// the large fact tables and a PostgreSQL deployment (on Microsoft
// instances) holding the dimension tables, so that each of the four
// studied queries joins tables living in *different* engines and
// clouds, exactly the scenario of the paper's Example 2.1.
//
//	site "hive-aws":     lineitem, customer
//	site "postgres-azure": orders, part
//
// Q12 = lineitem(A) ⋈ orders(B), Q13 = orders(B) ⟕ customer(A),
// Q14/Q17 = lineitem(A) ⋈ part(B): all cross-site.
func DefaultTopology(seed int64) (*Federation, error) {
	return New(twoSites(seed, 16, 4)) // PostgreSQL does not scale out; small pool
}

// WideTopology is the default two-site deployment scaled out until the
// QEP lattice reaches the regime of the paper's Example 3.1 (18,200
// equivalent plans for one query): both sites rent clusters of up to
// maxNodes VMs, so with the dense menu NodeRange(maxNodes) a query
// enumerates 2×maxNodes² QEPs — maxNodes 96 gives 18,432 ≥ 18,200.
// Engines, catalog, links, and noise match DefaultTopology; only the
// capacity ceiling changes, which keeps costs comparable across the
// ablation's federation sizes.
func WideTopology(seed int64, maxNodes int) (*Federation, error) {
	if maxNodes < 1 {
		return nil, fmt.Errorf("federation: wide topology needs maxNodes >= 1, got %d", maxNodes)
	}
	return New(twoSites(seed, maxNodes, maxNodes))
}

// ThreeCloudTopology extends the default deployment with a third site —
// Spark on Google Cloud holding the customer table — realizing the
// three-provider architecture of the paper's Figure 1 and its
// future-work plan to "validate with more cloud providers (and their
// associated pricing model and services)".
//
//	hive-aws (Hive, Amazon):        lineitem
//	spark-gcp (Spark, Google):      customer
//	postgres-azure (PG, Microsoft): orders, part
//
// Q12/Q14/Q17 stay AWS↔Azure; Q13 becomes Azure↔GCP.
func ThreeCloudTopology(seed int64) (*Federation, error) {
	cfg := twoSites(seed, 16, 4)
	sparkSite := &Site{
		Name:     "spark-gcp",
		Provider: cloud.Google(),
		Engine:   engine.Spark(),
		Instance: "e2-standard-4",
		MaxNodes: 12,
		Load:     cloud.NewLoadProcess(seed + 4),
	}
	cfg.Sites = append(cfg.Sites, sparkSite)
	cfg.Catalog["customer"] = sparkSite.Name
	cfg.Links = map[string]cloud.Link{
		// Intra-continent pairs are faster than the default.
		"hive-aws→spark-gcp": {BandwidthMiBps: 220, LatencyS: 0.03},
		"spark-gcp→hive-aws": {BandwidthMiBps: 220, LatencyS: 0.03},
	}
	return New(cfg)
}
