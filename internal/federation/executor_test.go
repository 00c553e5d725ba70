package federation

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
)

// TestFullExecutorConcurrentExecute runs the four studied queries at
// once on a fresh executor, so they race to build its shared tables
// (Scheduler.DecideFromSweep calls Execute from many goroutines). Each
// answer must equal the one a sequential run gives.
func TestFullExecutorConcurrentExecute(t *testing.T) {
	fed := defaultFed(t)
	db := smallDB(t)
	want := make(map[tpch.QueryID][]engine.Row)
	seq := NewFullExecutor(fed, db)
	for _, q := range tpch.AllQueries {
		out, err := seq.Execute(Plan{Query: q, NodesLeft: 1, NodesRight: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[q] = out.Result.Rows
	}

	ex := NewFullExecutor(fed, db)
	var wg sync.WaitGroup
	for _, q := range tpch.AllQueries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := ex.Execute(Plan{Query: q, NodesLeft: 1, NodesRight: 1})
			if err != nil {
				t.Error(err)
				return
			}
			if got := out.Result.Rows; !reflect.DeepEqual(got, want[q]) {
				t.Errorf("%v: %v concurrently, %v sequentially", q, got, want[q])
			}
		}()
	}
	wg.Wait()
}
