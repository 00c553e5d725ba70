package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/federation"
)

// Same spec, same seed ⇒ byte-identical trace — the acceptance
// criterion the whole engine hangs off.
func TestSpecGenerateByteReproducible(t *testing.T) {
	for _, spec := range Matrix(42) {
		spec.Events = 300
		spec.Queries = []string{"Q12", "Q13", "Q14", "Q17"}
		a, err := spec.Generate()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		b, err := spec.Generate()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed generated different schedules", spec.Name)
		}
		var ba, bb bytes.Buffer
		if err := WriteTrace(&ba, a); err != nil {
			t.Fatal(err)
		}
		if err := WriteTrace(&bb, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Fatalf("%s: same seed produced different trace bytes", spec.Name)
		}
	}
}

func TestSpecGenerateMonotoneOffsets(t *testing.T) {
	spec := Spec{Arrival: "bursty", Events: 500, Seed: 9}
	events, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Offset <= events[i-1].Offset {
			t.Fatalf("offsets not strictly increasing at %d: %v then %v",
				i, events[i-1].Offset, events[i].Offset)
		}
	}
}

func TestMatrixShape(t *testing.T) {
	specs := Matrix(7)
	want := len(ArrivalKinds()) * len(matrixChaos)
	if len(specs) != want {
		t.Fatalf("matrix has %d cells, want %d", len(specs), want)
	}
	names := map[string]bool{}
	seeds := map[int64]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		if seeds[s.Seed] {
			t.Fatalf("duplicate scenario seed %d", s.Seed)
		}
		seeds[s.Seed] = true
		if _, err := s.Profile(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}

func TestSpecRejectsUnknownChaos(t *testing.T) {
	if _, err := (Spec{Chaos: "gremlins"}).Generate(); err == nil {
		t.Fatal("unknown chaos profile must fail Generate")
	}
}

func TestAttachChaosWiresEverySite(t *testing.T) {
	fed, err := federation.DefaultTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	// A certain, violent outage so one Tick is enough to observe it.
	prof := cloud.ChaosProfile{Name: "test", OutageProb: 1, OutageMinT: 10, OutageMaxT: 10, OutageFactor: 50}
	c := AttachChaos(fed, prof, 5)
	if c == nil {
		t.Fatal("enabled profile returned nil injector")
	}
	for name, site := range fed.Sites {
		if f := site.Load.Tick(); f <= cloud.MaxFactor {
			t.Fatalf("site %s: outage not visible through Tick, factor %v", name, f)
		}
	}
	DetachChaos(fed)
	for name, site := range fed.Sites {
		if f := site.Load.Tick(); f > cloud.MaxFactor {
			t.Fatalf("site %s: chaos still attached after detach, factor %v", name, f)
		}
	}

	if c := AttachChaos(fed, cloud.ChaosProfile{Name: "none"}, 5); c != nil {
		t.Fatal("disabled profile must return nil")
	}
}
