package cloud

import (
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
)

func TestPaperTable1Catalog(t *testing.T) {
	// Spot-check the exact prices published in Table 1.
	amazon := Amazon()
	for _, tc := range []struct {
		name  string
		vcpu  int
		mem   float64
		price float64
	}{
		{"a1.medium", 1, 2, 0.0049},
		{"a1.large", 2, 4, 0.0098},
		{"a1.xlarge", 4, 8, 0.0197},
		{"a1.2xlarge", 8, 16, 0.0394},
		{"a1.4xlarge", 16, 32, 0.0788},
	} {
		it, err := amazon.Instance(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if it.VCPU != tc.vcpu || it.MemoryGiB != tc.mem || it.PricePerHour != tc.price {
			t.Errorf("%s = %+v, want vCPU=%d mem=%v price=%v", tc.name, it, tc.vcpu, tc.mem, tc.price)
		}
		if it.StorageGiB != 0 {
			t.Errorf("%s: Amazon a1 family is EBS-only, got storage %v", tc.name, it.StorageGiB)
		}
	}
	microsoft := Microsoft()
	for _, tc := range []struct {
		name    string
		vcpu    int
		mem     float64
		storage float64
		price   float64
	}{
		{"B1S", 1, 1, 2, 0.011},
		{"B1MS", 1, 2, 4, 0.021},
		{"B2S", 2, 4, 8, 0.042},
		{"B2MS", 2, 8, 16, 0.084},
		{"B4MS", 4, 16, 32, 0.166},
		{"B8MS", 8, 32, 64, 0.333},
	} {
		it, err := microsoft.Instance(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if it.VCPU != tc.vcpu || it.MemoryGiB != tc.mem || it.StorageGiB != tc.storage || it.PricePerHour != tc.price {
			t.Errorf("%s = %+v, want %+v", tc.name, it, tc)
		}
	}
}

func TestPaperPricingObservation(t *testing.T) {
	// The paper notes Amazon instances are cheaper than comparable
	// Microsoft instances (without storage). Check a like-for-like pair:
	// a1.large (2 vCPU, 4 GiB) vs B2S (2 vCPU, 4 GiB).
	a, err := Amazon().Instance("a1.large")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Microsoft().Instance("B2S")
	if err != nil {
		t.Fatal(err)
	}
	if a.PricePerHour >= m.PricePerHour {
		t.Errorf("a1.large (%v) should undercut B2S (%v)", a.PricePerHour, m.PricePerHour)
	}
}

func TestUnknownInstance(t *testing.T) {
	if _, err := Amazon().Instance("m5.large"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("got %v, want ErrUnknownInstance", err)
	}
}

func TestGoogleCatalogNonEmpty(t *testing.T) {
	g := Google()
	if len(g.Instances) == 0 {
		t.Fatal("Google catalog is empty")
	}
	if _, err := g.Instance("e2-medium"); err != nil {
		t.Fatal(err)
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{BandwidthMiBps: 100, LatencyS: 0.05}
	// 100 MiB at 100 MiB/s = 1s + latency.
	got := l.TransferTime(100 * 1024 * 1024)
	if math.Abs(got-1.05) > 1e-9 {
		t.Errorf("TransferTime = %v, want 1.05", got)
	}
	if l.TransferTime(0) != 0 || l.TransferTime(-1) != 0 {
		t.Error("empty transfer should take no time")
	}
}

func TestTransferCost(t *testing.T) {
	// 1 GiB out of Amazon at $0.09/GiB.
	got := TransferCost(Amazon(), 1024*1024*1024)
	if math.Abs(got-0.09) > 1e-12 {
		t.Errorf("TransferCost = %v, want 0.09", got)
	}
	if TransferCost(Amazon(), 0) != 0 {
		t.Error("zero bytes should cost 0")
	}
}

func TestLoadProcessBounds(t *testing.T) {
	lp := NewLoadProcess(1)
	for i := 0; i < 5000; i++ {
		f := lp.Tick()
		if f < MinFactor || f > MaxFactor {
			t.Fatalf("tick %d: factor %v outside [%v, %v]", i, f, MinFactor, MaxFactor)
		}
	}
}

func TestLoadProcessVaries(t *testing.T) {
	lp := NewLoadProcess(2)
	var o stats.Online
	for i := 0; i < 2000; i++ {
		o.Add(lp.Tick())
	}
	if o.StdDev() < 0.01 {
		t.Errorf("load process is nearly constant (σ = %v); no drift to estimate under", o.StdDev())
	}
	if o.Mean() < 0.5 || o.Mean() > 2 {
		t.Errorf("load mean %v drifted implausibly far from nominal", o.Mean())
	}
}

func TestLoadProcessDeterministic(t *testing.T) {
	a, b := NewLoadProcess(7), NewLoadProcess(7)
	for i := 0; i < 100; i++ {
		if a.Tick() != b.Tick() {
			t.Fatal("same-seed load processes diverged")
		}
	}
}
