package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/tpch"
)

// countingListener counts every byte that crosses the connections it
// accepts, in either direction.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// benchPair is two whole Servers hosting spec, each on its own loopback
// listener with its own data directory; wire counts the bytes both
// listeners carried. stop drains them.
func benchPair(b *testing.B, spec FederationSpec, replicate bool) (servers [2]*Server, members []cluster.Member, owner int, wire *atomic.Int64, stop func()) {
	var (
		late  [2]lateHandler
		https [2]*http.Server
	)
	wire = new(atomic.Int64)
	for i := range late {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		https[i] = &http.Server{Handler: &late[i]}
		go https[i].Serve(countingListener{ln, wire}) //nolint:errcheck // ErrServerClosed at teardown
		members = append(members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: "http://" + ln.Addr().String()})
	}
	owner = -1
	for i := range servers {
		srv, err := New(Config{
			Federations: []FederationSpec{spec},
			Store:       StoreConfig{Dir: b.TempDir()},
			Cluster: &ClusterConfig{
				NodeID: members[i].ID, Peers: members,
				Replicate: replicate, SyncInterval: 20 * time.Millisecond,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		late[i].h.Store(&h)
		servers[i] = srv
		if srv.tenants[spec.Name].state.Load() == cluster.Active {
			owner = i
		}
	}
	return servers, members, owner, wire, func() {
		for i, srv := range servers {
			if err := srv.Drain(context.Background()); err != nil {
				b.Fatal(err)
			}
			https[i].Close()
		}
	}
}

// BenchmarkReplicatedAppend prices the replication hop on its own: an
// owner and its standby (benchPair) and one acked History.Append per
// op — a WAL append here, the frame's trip to the standby, the standby's
// append, the ack — with no sweep, decision or client HTTP around it. It
// lives in this package, not beside BenchmarkRouteLookup, because the
// owner's History is reachable only from here; it uses nothing that
// differs between the request-per-batch and the stream transport, so the
// same file measures either. Run it at -cpu 1,2,4: the hop is two
// goroutine hand-offs per side and behaves differently once they can land
// on different threads.
func BenchmarkReplicatedAppend(b *testing.B) {
	servers, _, owner, _, stop := benchPair(b, chaosPaperSpec(), true)
	cs := servers[owner].cluster
	waitStreaming(b, servers[owner], "paper")
	h := servers[owner].tenants["paper"].sched.History(tpch.QueryQ12)
	obs := core.Observation{X: make([]float64, federation.FeatureDim), Costs: []float64{1, 2}}
	shipped := cs.framesShipped.Value()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Append(obs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	if got := cs.framesShipped.Value() - shipped; got < float64(b.N) || cs.replDegradedN.Value() != 0 {
		b.Fatalf("%v frames shipped for %d acked appends, %v degrades: not every op paid the hop",
			got, b.N, cs.replDegradedN.Value())
	}
	stop()
}

// BenchmarkHandoff prices one live migration: a federation handed back
// and forth between two durable nodes (benchPair, no replication) by the
// operator's POST, so an op is drain, the shard's trip, activate and the
// target's open — with no request in flight. obs=20 is a shard a
// few frames long; rolled is the largest a served history gets, two
// segments two observations short of the third roll. wire-B/op counts
// every byte either listener carried, the operator's request and the
// control POSTs included. Run it at -cpu 1.
func BenchmarkHandoff(b *testing.B) {
	for _, size := range []struct {
		name      string
		bootstrap int
	}{{"obs=20", 20}, {"rolled", 3*historyRetain - 2}} {
		b.Run(size.name, func(b *testing.B) {
			spec := chaosPaperSpec()
			spec.Bootstrap = size.bootstrap
			servers, members, owner, wire, stop := benchPair(b, spec, false)
			handoff := func() {
				target := 1 - owner
				resp, err := http.Post(members[owner].Addr+"/v1/admin/handoff?federation=paper&target="+members[target].ID, "", nil)
				if err != nil {
					b.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("handoff: %d %s", resp.StatusCode, body)
				}
				owner = target
			}
			// Both directories hold a copy before the clock starts, so
			// every timed handoff lands on stale segments, as the steady
			// state does.
			handoff()
			handoff()
			before := wire.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				handoff()
			}
			b.StopTimer()
			b.ReportMetric(float64(wire.Load()-before)/float64(b.N), "wire-B/op")
			if h := servers[owner].tenants["paper"].sched.History(tpch.QueryQ12); h == nil || h.Len() != size.bootstrap {
				b.Fatalf("after %d handoffs the owner's history is not the %d observations it started with", b.N+2, size.bootstrap)
			}
			stop()
		})
	}
}
