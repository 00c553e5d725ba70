package federation

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/engine"
	"repro/internal/tpch"
)

// Executor runs a plan and reports its measured cost.
type Executor interface {
	// Execute runs plan p and returns the outcome.
	Execute(p Plan) (*Outcome, error)
	// Features returns the estimation feature vector for p (the input
	// data sizes are the executor's, so they ride along here).
	Features(p Plan) ([]float64, error)
}

// InputSizer is the optional Executor capability a sweep batches on:
// the sizes in bytes of a query's two input tables, which is everything
// about a feature vector that is the executor's to know. An executor
// that has it promises Features(p) = Features(p, InputBytes(p.Query)),
// so a sweep over a linear model resolves the sizes once per query and
// applies the coefficients to the plans' node counts instead of asking
// for feature vectors plan by plan.
type InputSizer interface {
	InputBytes(q tpch.QueryID) (leftBytes, rightBytes float64, err error)
}

// ---------------------------------------------------------------------------
// FullExecutor

// FullExecutor executes the relational plans for real over a generated
// database, returning both the answer and the simulated cost. Use it at
// small scale factors where materializing the data is cheap. It is safe
// for concurrent use.
type FullExecutor struct {
	Fed *Federation
	DB  *tpch.Database

	// relations caches ToRelation conversions; the relations are never
	// modified, so once built they are shared by every execution.
	mu        sync.Mutex
	relations map[string]*engine.Relation
}

// NewFullExecutor builds a FullExecutor.
func NewFullExecutor(fed *Federation, db *tpch.Database) *FullExecutor {
	return &FullExecutor{Fed: fed, DB: db, relations: make(map[string]*engine.Relation)}
}

func (e *FullExecutor) relation(table string) (*engine.Relation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rel, ok := e.relations[table]; ok {
		return rel, nil
	}
	rel, err := engine.ToRelation(e.DB, table)
	if err != nil {
		return nil, err
	}
	e.relations[table] = rel
	return rel, nil
}

// run executes the three plan pieces and returns both the result and
// the raw statistics.
func (e *FullExecutor) run(q tpch.QueryID) (*engine.Relation, pieces, error) {
	qp, err := engine.BuildPlan(q)
	if err != nil {
		return nil, pieces{}, err
	}
	leftBase, err := e.relation(qp.LeftTable)
	if err != nil {
		return nil, pieces{}, err
	}
	rightBase, err := e.relation(qp.RightTable)
	if err != nil {
		return nil, pieces{}, err
	}
	leftRel, leftStats, err := engine.Run(qp.LeftPrep, map[string]*engine.Relation{qp.LeftTable: leftBase})
	if err != nil {
		return nil, pieces{}, fmt.Errorf("federation: %v left prep: %w", q, err)
	}
	rightRel, rightStats, err := engine.Run(qp.RightPrep, map[string]*engine.Relation{qp.RightTable: rightBase})
	if err != nil {
		return nil, pieces{}, fmt.Errorf("federation: %v right prep: %w", q, err)
	}
	result, finalStats, err := engine.Run(qp.Final, map[string]*engine.Relation{"left": leftRel, "right": rightRel})
	if err != nil {
		return nil, pieces{}, fmt.Errorf("federation: %v final: %w", q, err)
	}
	return result, pieces{
		leftStats:      leftStats,
		rightStats:     rightStats,
		finalStats:     finalStats,
		leftPrepBytes:  leftRel.ApproxBytes(),
		rightPrepBytes: rightRel.ApproxBytes(),
	}, nil
}

// Execute implements Executor.
func (e *FullExecutor) Execute(p Plan) (*Outcome, error) {
	result, pc, err := e.run(p.Query)
	if err != nil {
		return nil, err
	}
	out, err := e.Fed.execute(p, pc)
	if err != nil {
		return nil, err
	}
	out.Result = result.Result()
	return out, nil
}

// InputBytes implements InputSizer.
func (e *FullExecutor) InputBytes(q tpch.QueryID) (leftBytes, rightBytes float64, err error) {
	leftTable, rightTable := q.Tables()
	if leftBytes, err = e.DB.TableBytes(leftTable); err != nil {
		return 0, 0, err
	}
	if rightBytes, err = e.DB.TableBytes(rightTable); err != nil {
		return 0, 0, err
	}
	return leftBytes, rightBytes, nil
}

// Features implements Executor.
func (e *FullExecutor) Features(p Plan) ([]float64, error) { return sizedFeatures(e, p) }

// sizedFeatures is Features(p, s.InputBytes(p.Query)).
func sizedFeatures(s InputSizer, p Plan) ([]float64, error) {
	lb, rb, err := s.InputBytes(p.Query)
	if err != nil {
		return nil, err
	}
	return Features(p, lb, rb), nil
}

// ---------------------------------------------------------------------------
// ScaledExecutor

// Calibration holds the per-query operator statistics measured by one
// full execution at a known scale factor.
type Calibration struct {
	SF      float64
	PerSF   map[tpch.QueryID]pieces // statistics normalized per unit SF
	tblByte map[string]float64      // table bytes per unit SF
}

// CalibrationSF is the scale of the TPC-H database every scheduler stack
// calibrates on (TestCalibrationGolden pins Calibrate's output at it).
const CalibrationSF = 0.004

// Calibrate runs every studied query once over a calibration database
// and normalizes the measured statistics per unit of scale factor.
func Calibrate(fed *Federation, calibSF float64, seed int64) (*Calibration, error) {
	db, err := tpch.Generate(calibSF, tpch.GenOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	full := NewFullExecutor(fed, db)
	cal := &Calibration{
		SF:      calibSF,
		PerSF:   make(map[tpch.QueryID]pieces, len(tpch.AllQueries)),
		tblByte: make(map[string]float64),
	}
	for _, q := range tpch.AllQueries {
		_, pc, err := full.run(q)
		if err != nil {
			return nil, err
		}
		cal.PerSF[q] = scalePieces(pc, 1/calibSF)
	}
	for _, table := range []string{"lineitem", "orders", "customer", "part"} {
		b, err := db.TableBytes(table)
		if err != nil {
			return nil, err
		}
		cal.tblByte[table] = b / calibSF
	}
	return cal, nil
}

// scalePieces multiplies all row/byte statistics by ratio; stage counts
// are structural and stay fixed.
func scalePieces(pc pieces, ratio float64) pieces {
	return pieces{
		leftStats:      scaleStats(pc.leftStats, ratio),
		rightStats:     scaleStats(pc.rightStats, ratio),
		finalStats:     scaleStats(pc.finalStats, ratio),
		leftPrepBytes:  pc.leftPrepBytes * ratio,
		rightPrepBytes: pc.rightPrepBytes * ratio,
	}
}

func scaleStats(s engine.Stats, ratio float64) engine.Stats {
	return engine.Stats{
		RowsScanned:   int(math.Round(float64(s.RowsScanned) * ratio)),
		RowsProcessed: int(math.Round(float64(s.RowsProcessed) * ratio)),
		RowsOutput:    int(math.Round(float64(s.RowsOutput) * ratio)),
		ShuffleBytes:  s.ShuffleBytes * ratio,
		Stages:        s.Stages,
	}
}

// ScaledExecutor replays calibrated statistics at an arbitrary scale
// factor. It cannot return query answers (Result stays nil) but its
// cost structure matches FullExecutor by construction, which the tests
// verify.
type ScaledExecutor struct {
	Fed *Federation
	Cal *Calibration
	// SF is the simulated data scale (0.1 ≈ the paper's 100 MiB
	// dataset, 1 ≈ 1 GiB).
	SF float64
}

// NewScaledExecutor builds a ScaledExecutor at the given scale.
func NewScaledExecutor(fed *Federation, cal *Calibration, sf float64) (*ScaledExecutor, error) {
	if sf <= 0 {
		return nil, fmt.Errorf("federation: non-positive scale factor %v", sf)
	}
	return &ScaledExecutor{Fed: fed, Cal: cal, SF: sf}, nil
}

// pieces returns q's calibrated statistics rescaled to the executor's
// scale factor.
func (e *ScaledExecutor) pieces(q tpch.QueryID) (pieces, error) {
	pc, ok := e.Cal.PerSF[q]
	if !ok {
		return pieces{}, fmt.Errorf("federation: query %v not calibrated", q)
	}
	return scalePieces(pc, e.SF), nil
}

// Execute implements Executor.
func (e *ScaledExecutor) Execute(p Plan) (*Outcome, error) {
	pc, err := e.pieces(p.Query)
	if err != nil {
		return nil, err
	}
	return e.Fed.execute(p, pc)
}

// CostUnder is the oracle: the outcome p would have under env, with
// nothing drawn from the federation — no load tick, no noise. Execute(p)
// equals CostUnder(p, out.Env) bit for bit; env.Noiseless() gives the
// plan's cost under the loads and prices alone.
func (e *ScaledExecutor) CostUnder(p Plan, env Env) (*Outcome, error) {
	pc, err := e.pieces(p.Query)
	if err != nil {
		return nil, err
	}
	left, right, err := e.Fed.sites(p)
	if err != nil {
		return nil, err
	}
	return e.Fed.costUnder(p, left, right, pc, env), nil
}

// InputBytes implements InputSizer.
func (e *ScaledExecutor) InputBytes(q tpch.QueryID) (leftBytes, rightBytes float64, err error) {
	leftTable, rightTable := q.Tables()
	lb, ok := e.Cal.tblByte[leftTable]
	if !ok {
		return 0, 0, fmt.Errorf("federation: table %q not calibrated", leftTable)
	}
	rb, ok := e.Cal.tblByte[rightTable]
	if !ok {
		return 0, 0, fmt.Errorf("federation: table %q not calibrated", rightTable)
	}
	return lb * e.SF, rb * e.SF, nil
}

// Features implements Executor.
func (e *ScaledExecutor) Features(p Plan) ([]float64, error) { return sizedFeatures(e, p) }
