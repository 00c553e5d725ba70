package cloud

import "testing"

func TestParseChaosProfile(t *testing.T) {
	for _, name := range ChaosProfileNames() {
		p, err := ParseChaosProfile(name)
		if err != nil {
			t.Fatalf("ParseChaosProfile(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("profile %q carries name %q", name, p.Name)
		}
		if name == "none" && p.Enabled() {
			t.Fatal("profile none must inject nothing")
		}
		if name != "none" && !p.Enabled() {
			t.Fatalf("profile %q injects nothing", name)
		}
	}
	if _, err := ParseChaosProfile(""); err != nil {
		t.Fatalf("empty profile should resolve to none: %v", err)
	}
	if _, err := ParseChaosProfile("lava"); err == nil {
		t.Fatal("unknown profile must error")
	}
}

// chaosTrace advances one site schedule n ticks and records the load
// and price multipliers at every tick.
func chaosTrace(c *Chaos, site string, n int) (load, price []float64) {
	sc := c.Site(site)
	for i := 1; i <= n; i++ {
		load = append(load, sc.advance(i))
		price = append(price, sc.PriceFactor())
	}
	return load, price
}

func TestChaosSameSeedSameSchedule(t *testing.T) {
	prof, _ := ParseChaosProfile("mixed")
	l1, p1 := chaosTrace(NewChaos(prof, 7), "hive-aws", 600)
	l2, p2 := chaosTrace(NewChaos(prof, 7), "hive-aws", 600)
	for i := range l1 {
		if l1[i] != l2[i] || p1[i] != p2[i] {
			t.Fatalf("tick %d: same seed diverged: load %v vs %v, price %v vs %v",
				i, l1[i], l2[i], p1[i], p2[i])
		}
	}
	l3, _ := chaosTrace(NewChaos(prof, 8), "hive-aws", 600)
	same := true
	for i := range l1 {
		if l1[i] != l3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 600-tick schedules")
	}
}

// The per-site seed derives from the site name, so a site's schedule
// must not depend on which other sites were attached first.
func TestChaosSiteScheduleIndependentOfAttachOrder(t *testing.T) {
	prof, _ := ParseChaosProfile("mixed")
	a := NewChaos(prof, 21)
	a.Site("left")
	la, _ := chaosTrace(a, "right", 400)
	b := NewChaos(prof, 21)
	lb, _ := chaosTrace(b, "right", 400) // "left" never attached
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("tick %d: schedule depends on attach order: %v vs %v", i, la[i], lb[i])
		}
	}
}

func TestChaosOutageEscapesLoadClamp(t *testing.T) {
	lp := NewLoadProcess(3)
	prof := ChaosProfile{Name: "always-out", OutageProb: 1, OutageMinT: 5, OutageMaxT: 5, OutageFactor: 25}
	lp.AttachChaos(NewChaos(prof, 3).Site("s"))
	f := lp.Tick()
	if f <= MaxFactor {
		t.Fatalf("outage multiplier was clamped away: factor %v <= MaxFactor %v", f, MaxFactor)
	}
}

func TestChaosNilAttachChangesNothing(t *testing.T) {
	plain := NewLoadProcess(11)
	attached := NewLoadProcess(11)
	attached.AttachChaos(nil)
	for i := 0; i < 200; i++ {
		if a, b := plain.Tick(), attached.Tick(); a != b {
			t.Fatalf("tick %d: nil chaos changed the load process: %v vs %v", i, a, b)
		}
	}
}

// A spike window multiplies the provider's price factor, which the
// federation applies to compute and egress alike (TestPriceSpikeScalesMoney
// there checks the money an execution is charged).
func TestChaosPriceSpikeScalesCosts(t *testing.T) {
	p := Amazon()
	if got := p.PriceFactor(); got != 1 {
		t.Fatalf("price factor without chaos = %v, want 1", got)
	}
	prof := ChaosProfile{Name: "always-spike", SpikeProb: 1, SpikeMinT: 10, SpikeMaxT: 10, SpikeFactor: 3}
	sc := NewChaos(prof, 5).Site("s")
	p.AttachChaos(sc)
	if got := p.PriceFactor(); got != 1 {
		t.Fatalf("price factor before the window opens = %v, want 1", got)
	}
	sc.advance(1) // open the spike window
	if got := p.PriceFactor(); got != 3 {
		t.Fatalf("spiked price factor = %v, want 3", got)
	}
	p.AttachChaos(nil)
	if got := p.PriceFactor(); got != 1 {
		t.Fatalf("detached price factor = %v, want 1", got)
	}
}

func TestChaosCountsWindows(t *testing.T) {
	prof, _ := ParseChaosProfile("mixed")
	c := NewChaos(prof, 13)
	chaosTrace(c, "a", 2000)
	chaosTrace(c, "b", 2000)
	fc := c.Counts()
	total := fc.Outages + fc.Stragglers + fc.Spikes + fc.Resizes
	if total == 0 {
		t.Fatal("mixed profile opened no fault windows in 4000 ticks")
	}
	if fc.Spikes == 0 {
		t.Fatal("mixed profile opened no price-spike windows in 4000 ticks")
	}
}
