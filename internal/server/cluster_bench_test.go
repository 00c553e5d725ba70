package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/tpch"
)

// BenchmarkReplicatedAppend prices the replication hop on its own: an
// owner and its standby, each a whole Server on its own loopback
// listener with its own data directory, and one acked History.Append per
// op — a WAL append here, the frame's trip to the standby, the standby's
// append, the ack — with no sweep, decision or client HTTP around it. It
// lives in this package, not beside BenchmarkRouteLookup, because the
// owner's History is reachable only from here; it uses nothing that
// differs between the request-per-batch and the stream transport, so the
// same file measures either. Run it at -cpu 1,2,4: the hop is two
// goroutine hand-offs per side and behaves differently once they can land
// on different threads.
func BenchmarkReplicatedAppend(b *testing.B) {
	var (
		late    [2]lateHandler
		https   [2]*http.Server
		members []cluster.Member
		servers [2]*Server
	)
	for i := range late {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		https[i] = &http.Server{Handler: &late[i]}
		go https[i].Serve(ln) //nolint:errcheck // ErrServerClosed at teardown
		members = append(members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: "http://" + ln.Addr().String()})
	}
	owner := -1
	for i := range servers {
		srv, err := New(Config{
			Federations: []FederationSpec{chaosPaperSpec()},
			Store:       StoreConfig{Dir: b.TempDir()},
			Cluster: &ClusterConfig{
				NodeID: members[i].ID, Peers: members,
				Replicate: true, SyncInterval: 20 * time.Millisecond,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		late[i].h.Store(&h)
		servers[i] = srv
		if srv.tenants["paper"].state.Load() == tenantActive {
			owner = i
		}
	}
	cs := servers[owner].cluster
	for deadline := time.Now().Add(15 * time.Second); !cs.repl["paper"].Streaming("Q12"); {
		if time.Now().After(deadline) {
			b.Fatal("replication never armed")
		}
		time.Sleep(5 * time.Millisecond)
	}
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
	for i, srv := range servers {
		if err := srv.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		https[i].Close()
	}
}
