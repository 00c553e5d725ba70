package histstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
)

// benchObs mirrors the serving layer's observation shape: the
// federation feature vector and the (time, money) cost pair.
func benchObs(i int) core.Observation {
	x := make([]float64, federation.FeatureDim)
	for j := range x {
		x[j] = float64(i + j)
	}
	return core.Observation{X: x, Costs: []float64{float64(i), float64(i) / 2}}
}

// BenchmarkWALAppend measures one durable append through the full
// History → sink → frame → write path, without fsync (the serving
// default the <10% sweep-overhead budget is set against).
func BenchmarkWALAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h, err := s.OpenHistory("bench", federation.FeatureDim, federation.Metrics)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Append(benchObs(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendDurable is the durable-against-power-loss variant:
// every iteration is acknowledged only after a covering fsync. One
// writer pays one fsync per append; 64 closed-loop writers share them,
// so the per-append cost falls toward the no-fsync path.
func BenchmarkWALAppendDurable(b *testing.B) {
	for _, writers := range []int{1, 64} {
		b.Run(fmt.Sprintf("writers%d", writers), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{Fsync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h, err := s.OpenHistory("bench", federation.FeatureDim, federation.Metrics)
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						if err := h.Append(benchObs(int(i))); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkRecovery measures a cold open replaying the WAL: linear in
// the history without a retention bound (n=N), flat with the server's
// bound (retain=1024/n=N). export-B is what a handoff or standby sync
// of the opened shard ships. Every timing round of a size writes its
// store again, so the n=1000000 setup costs far more than its opens;
// `make layers` runs n=10000 and retain=1024/n=100000.
func BenchmarkRecovery(b *testing.B) {
	// write fills a fresh store with size observations and closes it.
	write := func(b *testing.B, size int, opts Options) string {
		dir := b.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		h, err := s.OpenHistory("bench", federation.FeatureDim, federation.Metrics)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < size; i++ {
			if err := h.Append(benchObs(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	reopen := func(b *testing.B, dir string, size int, opts Options) *Store {
		s, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		h, err := s.OpenHistory("bench", federation.FeatureDim, federation.Metrics)
		if err != nil {
			b.Fatal(err)
		}
		if h.Len() != size {
			b.Fatalf("recovered %d, want %d", h.Len(), size)
		}
		return s
	}
	for _, tc := range []struct {
		retain int
		sizes  []int
	}{{0, []int{100, 1000, 10000, 100000}}, {1024, []int{10000, 100000, 1000000}}} {
		for _, size := range tc.sizes {
			name, opts := fmt.Sprintf("n=%d", size), Options{Retain: tc.retain}
			if tc.retain > 0 {
				name = fmt.Sprintf("retain=%d/%s", tc.retain, name)
			}
			b.Run(name, func(b *testing.B) {
				dir := write(b, size, opts)
				var export int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := reopen(b, dir, size, opts)
					if i == 0 {
						b.StopTimer()
						_, frames, err := s.ExportShard("bench", nil)
						if err != nil {
							b.Fatal(err)
						}
						export = len(frames)
						b.StartTimer()
					}
					if err := s.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(export), "export-B")
			})
		}
	}
}
