// Package engine is a small relational query engine plus the simulated
// execution-cost profiles of the two database engines the paper's
// evaluation federates: Hive (MapReduce-style batch engine: expensive
// job startup and stage barriers, scan throughput that scales with the
// cluster) and PostgreSQL (single-node row store: negligible startup,
// no horizontal scaling).
//
// The operators compute real answers over generated TPC-H data — so
// correctness is testable against the reference implementations in
// package tpch — while execution *time* is simulated from the operator
// statistics through an engine Profile, which is what lets experiments
// run a 1 GiB-scale federation in milliseconds and lets the cloud layer
// inject load variance deterministically.
package engine

import (
	"errors"
	"fmt"
	"sort"
)

// ErrUnknownColumn is returned when a plan references a missing column.
var ErrUnknownColumn = errors.New("engine: unknown column")

// ErrUnknownTable is returned when a scan references an unregistered table.
var ErrUnknownTable = errors.New("engine: unknown table")

// Row is one tuple; values are int64, float64, string or nil (for
// outer-join padding).
type Row []any

// Schema is an ordered list of column names.
type Schema []string

// Index returns the position of a column.
func (s Schema) Index(name string) (int, error) {
	for i, c := range s {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q in schema %v", ErrUnknownColumn, name, []string(s))
}

// Relation is a materialized table: a schema plus rows.
type Relation struct {
	Name   string
	Schema Schema
	Rows   []Row
}

// ApproxBytes estimates the relation's in-flight size, used by the
// shipping and shuffle cost models (12 bytes per value is a reasonable
// average across int/float/short-string columns).
func (r *Relation) ApproxBytes() float64 {
	return float64(len(r.Rows)*len(r.Schema)) * 12
}

// Stats accumulates the work a plan performed; engine profiles turn
// these into simulated seconds.
type Stats struct {
	RowsScanned   int // rows read by scans
	RowsProcessed int // rows flowing through non-scan operators
	RowsOutput    int // rows in the final result
	ShuffleBytes  float64
	// Stages counts blocking operators (joins, aggregates, sorts):
	// each is a stage barrier / separate job in a MapReduce engine.
	Stages int
}

// Context carries the table registry, accumulated stats and the
// memoization cache for Cached nodes during one execution.
type Context struct {
	Tables map[string]*Relation
	Stats  Stats
	cache  map[*Cached]*Relation
}

// NewContext returns an execution context over the given tables.
func NewContext(tables map[string]*Relation) *Context {
	return &Context{Tables: tables, cache: make(map[*Cached]*Relation)}
}

// Node is one operator of a physical plan.
type Node interface {
	Execute(ctx *Context) (*Relation, error)
}

// ---------------------------------------------------------------------------
// Scan

// Scan reads a registered table.
type Scan struct {
	Table string
}

// Execute implements Node.
func (s *Scan) Execute(ctx *Context) (*Relation, error) {
	rel, ok := ctx.Tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, s.Table)
	}
	ctx.Stats.RowsScanned += len(rel.Rows)
	return rel, nil
}

// ---------------------------------------------------------------------------
// Filter

// Pred evaluates a predicate against a row; idx maps column names to
// positions and is computed once per execution.
type Pred func(row Row, idx map[string]int) (bool, error)

// Filter keeps the rows matching Pred.
type Filter struct {
	In   Node
	Pred Pred
}

// Execute implements Node.
func (f *Filter) Execute(ctx *Context) (*Relation, error) {
	in, err := f.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	idx := indexOf(in.Schema)
	out := &Relation{Schema: in.Schema}
	for _, row := range in.Rows {
		keep, err := f.Pred(row, idx)
		if err != nil {
			return nil, err
		}
		if keep {
			out.Rows = append(out.Rows, row)
		}
	}
	ctx.Stats.RowsProcessed += len(in.Rows)
	return out, nil
}

// ---------------------------------------------------------------------------
// Project

// Project keeps a subset of columns, in order.
type Project struct {
	In   Node
	Cols []string
}

// Execute implements Node.
func (p *Project) Execute(ctx *Context) (*Relation, error) {
	in, err := p.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	positions := make([]int, len(p.Cols))
	for i, c := range p.Cols {
		pos, err := in.Schema.Index(c)
		if err != nil {
			return nil, err
		}
		positions[i] = pos
	}
	out := &Relation{Schema: Schema(p.Cols), Rows: make([]Row, len(in.Rows))}
	for i, row := range in.Rows {
		nr := make(Row, len(positions))
		for j, pos := range positions {
			nr[j] = row[pos]
		}
		out.Rows[i] = nr
	}
	ctx.Stats.RowsProcessed += len(in.Rows)
	return out, nil
}

// ---------------------------------------------------------------------------
// HashJoin

// JoinType selects inner or left-outer semantics.
type JoinType int

// Join types.
const (
	Inner JoinType = iota
	LeftOuter
)

// HashJoin joins two inputs on single equality keys. The right side is
// built into a hash table; left rows probe it. Output schema is the
// left schema followed by the right schema (right columns prefixed with
// the right relation's key column untouched — callers project as
// needed; duplicate names are disambiguated with a "r_" prefix).
type HashJoin struct {
	Left, Right       Node
	LeftKey, RightKey string
	Type              JoinType
}

// Execute implements Node.
func (j *HashJoin) Execute(ctx *Context) (*Relation, error) {
	left, err := j.Left.Execute(ctx)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.Execute(ctx)
	if err != nil {
		return nil, err
	}
	lk, err := left.Schema.Index(j.LeftKey)
	if err != nil {
		return nil, err
	}
	rk, err := right.Schema.Index(j.RightKey)
	if err != nil {
		return nil, err
	}

	outSchema := joinSchema(left.Schema, right.Schema)

	build := make(map[any][]Row, len(right.Rows))
	for _, row := range right.Rows {
		k := row[rk]
		build[k] = append(build[k], row)
	}

	out := &Relation{Schema: outSchema}
	nullRight := make(Row, len(right.Schema))
	for _, lrow := range left.Rows {
		matches := build[lrow[lk]]
		if len(matches) == 0 {
			if j.Type == LeftOuter {
				out.Rows = append(out.Rows, concatRows(lrow, nullRight))
			}
			continue
		}
		for _, rrow := range matches {
			out.Rows = append(out.Rows, concatRows(lrow, rrow))
		}
	}
	ctx.Stats.RowsProcessed += len(left.Rows) + len(right.Rows) + len(out.Rows)
	ctx.Stats.ShuffleBytes += left.ApproxBytes() + right.ApproxBytes()
	ctx.Stats.Stages++
	return out, nil
}

// joinSchema builds the concatenated output schema, disambiguating
// duplicate right-side names with an "r_" prefix.
func joinSchema(left, right Schema) Schema {
	out := make(Schema, 0, len(left)+len(right))
	out = append(out, left...)
	seen := make(map[string]bool, len(left))
	for _, c := range left {
		seen[c] = true
	}
	for _, c := range right {
		if seen[c] {
			c = "r_" + c
		}
		out = append(out, c)
	}
	return out
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// ---------------------------------------------------------------------------
// Aggregate

// AggKind is the aggregate function family.
type AggKind int

// Aggregate kinds.
const (
	Count AggKind = iota // COUNT(*) or conditional count via Where
	Sum
	Avg
)

// ValueFn extracts a numeric value from a row.
type ValueFn func(row Row, idx map[string]int) (float64, error)

// AggSpec is one output aggregate.
type AggSpec struct {
	As   string
	Kind AggKind
	// Val feeds Sum/Avg; ignored for Count.
	Val ValueFn
	// Where, when set, restricts which rows feed this aggregate —
	// the CASE WHEN … THEN 1 ELSE 0 pattern of Q12.
	Where Pred
}

// Aggregate groups rows by the GroupBy columns (empty = one global
// group) and computes the Aggs. Output schema is GroupBy ++ agg names.
type Aggregate struct {
	In      Node
	GroupBy []string
	Aggs    []AggSpec
}

type aggState struct {
	key    []any
	counts []int64
	sums   []float64
}

// Execute implements Node.
func (a *Aggregate) Execute(ctx *Context) (*Relation, error) {
	in, err := a.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	idx := indexOf(in.Schema)
	groupPos := make([]int, len(a.GroupBy))
	for i, c := range a.GroupBy {
		pos, err := in.Schema.Index(c)
		if err != nil {
			return nil, err
		}
		groupPos[i] = pos
	}

	groups := make(map[string]*aggState)
	order := make([]string, 0)
	keyBuf := make([]byte, 0, 64)
	for _, row := range in.Rows {
		keyBuf = keyBuf[:0]
		for _, pos := range groupPos {
			keyBuf = append(keyBuf, fmt.Sprint(row[pos])...)
			keyBuf = append(keyBuf, 0)
		}
		k := string(keyBuf)
		st, ok := groups[k]
		if !ok {
			key := make([]any, len(groupPos))
			for i, pos := range groupPos {
				key[i] = row[pos]
			}
			st = &aggState{
				key:    key,
				counts: make([]int64, len(a.Aggs)),
				sums:   make([]float64, len(a.Aggs)),
			}
			groups[k] = st
			order = append(order, k)
		}
		for i, spec := range a.Aggs {
			if spec.Where != nil {
				ok, err := spec.Where(row, idx)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			st.counts[i]++
			if spec.Kind == Sum || spec.Kind == Avg {
				v, err := spec.Val(row, idx)
				if err != nil {
					return nil, err
				}
				st.sums[i] += v
			}
		}
	}
	// A global aggregate over zero rows still yields one all-zero row,
	// matching SQL semantics for COUNT/SUM over empty input.
	if len(groupPos) == 0 && len(order) == 0 {
		groups[""] = &aggState{
			counts: make([]int64, len(a.Aggs)),
			sums:   make([]float64, len(a.Aggs)),
		}
		order = append(order, "")
	}

	outSchema := make(Schema, 0, len(a.GroupBy)+len(a.Aggs))
	outSchema = append(outSchema, a.GroupBy...)
	for _, spec := range a.Aggs {
		outSchema = append(outSchema, spec.As)
	}
	out := &Relation{Schema: outSchema, Rows: make([]Row, 0, len(order))}
	for _, k := range order {
		st := groups[k]
		row := make(Row, 0, len(outSchema))
		row = append(row, st.key...)
		for i, spec := range a.Aggs {
			switch spec.Kind {
			case Count:
				row = append(row, st.counts[i])
			case Sum:
				row = append(row, st.sums[i])
			case Avg:
				if st.counts[i] == 0 {
					row = append(row, 0.0)
				} else {
					row = append(row, st.sums[i]/float64(st.counts[i]))
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	ctx.Stats.RowsProcessed += len(in.Rows)
	ctx.Stats.Stages++
	return out, nil
}

// ---------------------------------------------------------------------------
// Map

// MapFn rewrites one row.
type MapFn func(row Row, idx map[string]int) (Row, error)

// Map applies a row-wise transformation with a new schema (e.g. the
// final ratio computation of Q14).
type Map struct {
	In  Node
	Out Schema
	Fn  MapFn
}

// Execute implements Node.
func (m *Map) Execute(ctx *Context) (*Relation, error) {
	in, err := m.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	idx := indexOf(in.Schema)
	out := &Relation{Schema: m.Out, Rows: make([]Row, len(in.Rows))}
	for i, row := range in.Rows {
		nr, err := m.Fn(row, idx)
		if err != nil {
			return nil, err
		}
		out.Rows[i] = nr
	}
	ctx.Stats.RowsProcessed += len(in.Rows)
	return out, nil
}

// ---------------------------------------------------------------------------
// Sort and Limit

// Sort orders rows with a comparison function.
type Sort struct {
	In   Node
	Less func(a, b Row, idx map[string]int) bool
}

// Execute implements Node.
func (s *Sort) Execute(ctx *Context) (*Relation, error) {
	in, err := s.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	idx := indexOf(in.Schema)
	out := &Relation{Schema: in.Schema, Rows: make([]Row, len(in.Rows))}
	copy(out.Rows, in.Rows)
	sort.SliceStable(out.Rows, func(i, j int) bool { return s.Less(out.Rows[i], out.Rows[j], idx) })
	ctx.Stats.RowsProcessed += len(in.Rows)
	ctx.Stats.Stages++
	return out, nil
}

// Limit keeps the first N rows.
type Limit struct {
	In Node
	N  int
}

// Execute implements Node.
func (l *Limit) Execute(ctx *Context) (*Relation, error) {
	in, err := l.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	n := l.N
	if n > len(in.Rows) {
		n = len(in.Rows)
	}
	return &Relation{Schema: in.Schema, Rows: in.Rows[:n]}, nil
}

// ---------------------------------------------------------------------------
// Cached

// Cached memoizes its child's result within one Context so plans can
// reuse a subtree (Q17 consumes its lineitem ⋈ part join twice) without
// recomputing or double-counting stats.
type Cached struct {
	In Node
}

// Execute implements Node.
func (c *Cached) Execute(ctx *Context) (*Relation, error) {
	if rel, ok := ctx.cache[c]; ok {
		return rel, nil
	}
	rel, err := c.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	ctx.cache[c] = rel
	return rel, nil
}

// Run executes a plan over the registered tables and returns the result
// relation plus the accumulated operator statistics.
func Run(plan Node, tables map[string]*Relation) (*Relation, Stats, error) {
	ctx := NewContext(tables)
	rel, err := plan.Execute(ctx)
	if err != nil {
		return nil, ctx.Stats, err
	}
	ctx.Stats.RowsOutput = len(rel.Rows)
	return rel, ctx.Stats, nil
}

func indexOf(s Schema) map[string]int {
	idx := make(map[string]int, len(s))
	for i, c := range s {
		idx[c] = i
	}
	return idx
}
