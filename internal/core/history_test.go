package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is compiled
// in; allocation counts skip there, as everywhere in this module.
var raceEnabled bool

// servedObservation is observation i at the served shape: InlineFeatures
// features and InlineMetrics costs, every value distinct.
func servedObservation(i int) Observation {
	x := make([]float64, InlineFeatures)
	for j := range x {
		x[j] = float64(i*(j+3)%101) + 0.25*float64(j)
	}
	return Observation{X: x, Costs: []float64{float64(i)*0.5 + 1, float64(i%13) + 0.125}}
}

// servedHistory is a history of the served shape under the server's
// retention bound (1,024: it keeps the newest 1,024–2,047).
func servedHistory(t testing.TB) *History {
	t.Helper()
	h, err := NewHistory(InlineFeatures, "time_s", "money_usd")
	if err != nil {
		t.Fatal(err)
	}
	h.SetRetain(1024)
	return h
}

// TestHistoryAppendDoesNotAllocate: an append copies into the history's
// spare capacity. What allocates is the growth of that array and the
// trim's right-sized copy, amortised: over 10,000 appends to a bounded
// history, at most one allocation per hundred appends.
func TestHistoryAppendDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const appends = 10000
	h := servedHistory(t)
	obs := make([]Observation, appends)
	for i := range obs {
		obs[i] = servedObservation(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range obs {
		if err := h.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations over %d appends (%d trims)", allocs, appends, h.Base()/1024)
	if allocs > appends/100 {
		t.Errorf("%d allocations over %d appends, budget %d", allocs, appends, appends/100)
	}
}

// TestHistoryBytesPerObservation: at the served shape a retained
// observation costs its seven values, 56 B, and the slack of one growth
// step of the array (a quarter and the rounding up to a whole page at
// most, about a sixth on average over a retention cycle); nothing per
// observation besides.
func TestHistoryBytesPerObservation(t *testing.T) {
	h := servedHistory(t)
	const values = InlineFeatures + InlineMetrics
	var sum float64
	var samples int
	for i := 0; i < 10000; i++ {
		if err := h.Append(servedObservation(i)); err != nil {
			t.Fatal(err)
		}
		if h.Base() == 0 {
			continue // not yet at the bound
		}
		perObs := float64(cap(h.vals)*8) / float64(h.n)
		if perObs > 1.4*values*8 {
			t.Fatalf("after %d appends: %.1f B held per observation, %d B of values", i+1, perObs, values*8)
		}
		sum += perObs
		samples++
	}
	mean := sum / float64(samples)
	t.Logf("%.1f B held per retained observation on average (%d B of values)", mean, values*8)
	if mean > 1.2*values*8 {
		t.Errorf("%.1f B held per retained observation on average, want ≤ %.1f", mean, 1.2*values*8)
	}
}

// failingSink refuses RecordObservation while fail is set; it keeps
// nothing.
type failingSink struct{ fail bool }

var errRefused = errors.New("refused")

func (s *failingSink) RecordObservation(Observation) (uint64, error) {
	if s.fail {
		return 0, errRefused
	}
	return 0, nil
}

func (s *failingSink) WaitObservation(uint64) error { return nil }

// TestSnapshotSurvivesSpareCapacityWrites: a snapshot shares the
// history's array, so it must read the same bits while appends write
// into the spare capacity past its end, a failing sink writes there and
// is truncated back, a later append overwrites that place, and a trim
// moves the history away. Run under -race: a reader walks the snapshot
// the whole time.
func TestSnapshotSurvivesSpareCapacityWrites(t *testing.T) {
	const retain = 64
	h, err := NewHistory(InlineFeatures, "time_s", "money_usd")
	if err != nil {
		t.Fatal(err)
	}
	h.SetRetain(retain)
	sink := &failingSink{}
	h.SetSink(sink)
	i := 0
	appendOne := func() error {
		i++
		return h.Append(servedObservation(i))
	}
	// Append until the array has room for every append up to the next
	// trim, so that the trim below starts from the array the snapshot
	// shares.
	const width = InlineFeatures + InlineMetrics
	untilTrim := func() int { return retain - h.Len()%retain }
	for h.Len() < 2*retain || untilTrim() < 4 || cap(h.vals)-len(h.vals) < untilTrim()*width {
		if err := appendOne(); err != nil {
			t.Fatal(err)
		}
		if i > 100*retain {
			t.Fatal("the array never had room up to the next trim")
		}
	}
	s := h.Snapshot()
	want := make([]uint64, 0, s.Len()-s.Base())
	for j := s.Base(); j < s.Len(); j++ {
		o := s.At(j)
		for _, v := range append(append([]float64(nil), o.X...), o.Costs...) {
			want = append(want, math.Float64bits(v))
		}
	}
	check := func() error {
		k := 0
		for j := s.Base(); j < s.Len(); j++ {
			o := s.At(j)
			for _, vs := range [][]float64{o.X, o.Costs} {
				for _, v := range vs {
					if math.Float64bits(v) != want[k] {
						return errors.New("snapshot value changed")
					}
					k++
				}
			}
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stopReader := func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
	defer stopReader()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := check(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	shared := &h.vals[:1][0]
	// Into spare capacity, then a refused append there, then another
	// append over the refused one's place.
	if err := appendOne(); err != nil {
		t.Fatal(err)
	}
	sink.fail = true
	if err := appendOne(); !errors.Is(err, errRefused) {
		t.Fatalf("append through a failing sink: %v", err)
	}
	sink.fail = false
	if err := appendOne(); err != nil {
		t.Fatal(err)
	}
	if &h.vals[:1][0] != shared {
		t.Fatal("the appends moved the history: nothing was written into spare capacity")
	}
	// The refused observation left nothing behind: the newest two read
	// back as appended around it.
	for back, want := range []Observation{servedObservation(i), servedObservation(i - 2)} {
		if got := h.At(h.Len() - 1 - back); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("observation %d = %v, appended %v", h.Len()-1-back, got, want)
		}
	}
	// Then on up to the next trim, which must start from the shared
	// array and leave it as it was.
	for base := h.Base(); h.Base() == base; {
		if &h.vals[:1][0] != shared {
			t.Fatal("the history moved before the trim")
		}
		if err := appendOne(); err != nil {
			t.Fatal(err)
		}
	}
	stopReader()
	if err := check(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(want)/width+s.Base() {
		t.Fatalf("snapshot Len %d, Base %d for %d values", s.Len(), s.Base(), len(want))
	}
}
