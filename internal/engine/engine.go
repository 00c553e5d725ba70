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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrUnknownColumn is returned when a plan references a missing column.
var ErrUnknownColumn = errors.New("engine: unknown column")

// ErrUnknownTable is returned when a scan references an unregistered table.
var ErrUnknownTable = errors.New("engine: unknown table")

// Row is one tuple of a query's answer; values are int64, float64,
// string or nil (for outer-join padding).
type Row []any

// Result is a query's answer as rows: the shape callers print and
// compare, built once from the final relation.
type Result struct {
	Schema Schema
	Rows   []Row
}

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

// Kind is the type of a column's values.
type Kind uint8

// Column kinds.
const (
	Int   Kind = iota // int64, in Column.Ints
	Float             // float64, in Column.Floats
	Str               // string, in Column.Strs
)

func (k Kind) String() string { return [...]string{"int64", "float64", "string"}[k] }

// Column is one column of a relation: its values in the slice its Kind
// names.
type Column struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	// Null, when set, marks the rows a left outer join padded; their
	// values are zero.
	Null []bool
}

// len is the row count: only the slice c.Kind names holds values.
func (c *Column) len() int { return max(len(c.Ints), len(c.Floats), len(c.Strs)) }

// IsNull reports whether row i is outer-join padding.
func (c *Column) IsNull(i int) bool { return c.Null != nil && c.Null[i] }

// value boxes row i for a Result.
func (c *Column) value(i int) any {
	switch {
	case c.IsNull(i):
		return nil
	case c.Kind == Int:
		return c.Ints[i]
	case c.Kind == Float:
		return c.Floats[i]
	}
	return c.Strs[i]
}

// gather returns the column's values at rows, in that order; a row of
// -1 is padding and comes out null.
func (c *Column) gather(rows []int32) Column {
	out := Column{Kind: c.Kind}
	switch c.Kind {
	case Int:
		out.Ints = gatherSlice(c.Ints, rows)
	case Float:
		out.Floats = gatherSlice(c.Floats, rows)
	default:
		out.Strs = gatherSlice(c.Strs, rows)
	}
	for i, r := range rows {
		if r < 0 || c.IsNull(int(r)) {
			if out.Null == nil {
				out.Null = make([]bool, len(rows))
			}
			out.Null[i] = true
		}
	}
	return out
}

func gatherSlice[T any](src []T, rows []int32) []T {
	out := make([]T, len(rows))
	for i, r := range rows {
		if r >= 0 {
			out[i] = src[r]
		}
	}
	return out
}

// Relation is a materialized table: a schema and one typed column per
// schema entry. Operators never modify a relation's columns, so one may
// share another's.
type Relation struct {
	Name   string
	Schema Schema
	Cols   []Column
	// sel, when non-nil, lists the rows of Cols the relation holds, in
	// order (a Filter shares its input's columns); nil holds them all.
	sel []int32
}

// Len returns the number of rows.
func (r *Relation) Len() int {
	if r.sel != nil {
		return len(r.sel)
	}
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].len()
}

// row returns the index into Cols of the relation's k-th row.
func (r *Relation) row(k int) int {
	if r.sel == nil {
		return k
	}
	return int(r.sel[k])
}

// Result boxes the relation's rows, in order.
func (r *Relation) Result() *Result {
	rows := make([]Row, r.Len())
	for k := range rows {
		i := r.row(k)
		row := make(Row, len(r.Cols))
		for c := range r.Cols {
			row[c] = r.Cols[c].value(i)
		}
		rows[k] = row
	}
	return &Result{Schema: r.Schema, Rows: rows}
}

// ApproxBytes estimates the relation's in-flight size, used by the
// shipping and shuffle cost models (12 bytes per value is a reasonable
// average across int/float/short-string columns).
func (r *Relation) ApproxBytes() float64 {
	return float64(r.Len()*len(r.Schema)) * 12
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

// The functions a plan supplies to its operators are compiled once per
// Execute against the operator's input: they resolve the columns they
// read through a Binder and return a function of row indexes into the
// input's columns.
type (
	// Pred compiles a row predicate.
	Pred func(b *Binder) func(i int) bool
	// ValueFn compiles a numeric row value.
	ValueFn func(b *Binder) func(i int) float64
	// LessFn compiles a row order.
	LessFn func(b *Binder) func(i, j int) bool
)

// Binder resolves columns of one relation by name and kind. It keeps the
// first error, so a compiled function binds every column it reads and
// the operator checks once.
type Binder struct {
	in  *Relation
	err error
}

// Col returns the named column, checked to hold values of kind k; on
// error it records the error and returns an empty column.
func (b *Binder) Col(name string, k Kind) *Column {
	i, err := b.in.Schema.Index(name)
	if err == nil && b.in.Cols[i].Kind != k {
		err = fmt.Errorf("engine: column %q is %v, want %v", name, b.in.Cols[i].Kind, k)
	}
	if err != nil {
		b.err = cmp.Or(b.err, err)
		return &Column{}
	}
	return &b.in.Cols[i]
}

// Ints, Floats and Strs return a column's values.
func (b *Binder) Ints(name string) []int64     { return b.Col(name, Int).Ints }
func (b *Binder) Floats(name string) []float64 { return b.Col(name, Float).Floats }
func (b *Binder) Strs(name string) []string    { return b.Col(name, Str).Strs }

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
	ctx.Stats.RowsScanned += rel.Len()
	return rel, nil
}

// ---------------------------------------------------------------------------
// Filter

// Filter keeps the rows matching Pred. Its output is a selection over
// its input's columns; nothing is copied.
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
	b := &Binder{in: in}
	keep := f.Pred(b)
	if b.err != nil {
		return nil, b.err
	}
	n := in.Len()
	sel := []int32{} // non-nil even when empty: a nil sel holds every row
	for k := 0; k < n; k++ {
		if i := in.row(k); keep(i) {
			sel = append(sel, int32(i))
		}
	}
	ctx.Stats.RowsProcessed += n
	return &Relation{Schema: in.Schema, Cols: in.Cols, sel: sel}, nil
}

// ---------------------------------------------------------------------------
// Project

// Project keeps a subset of columns, in order, gathering the selected
// rows of a filtered input.
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
	out := &Relation{Schema: Schema(p.Cols), Cols: make([]Column, len(p.Cols))}
	for j, c := range p.Cols {
		pos, err := in.Schema.Index(c)
		if err != nil {
			return nil, err
		}
		if in.sel == nil {
			out.Cols[j] = in.Cols[pos]
		} else {
			out.Cols[j] = in.Cols[pos].gather(in.sel)
		}
	}
	ctx.Stats.RowsProcessed += in.Len()
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

// HashJoin joins two inputs on one equality of int64 keys. The right
// side is built into a hash table; left rows probe it, and each left
// row's matches come out in right-input order. Output schema is the
// left schema followed by the right schema (duplicate names are
// disambiguated with an "r_" prefix); a left-outer row with no match
// has its right columns null.
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
	lb, rb := &Binder{in: left}, &Binder{in: right}
	lk, rk := lb.Ints(j.LeftKey), rb.Ints(j.RightKey)
	if err := cmp.Or(lb.err, rb.err); err != nil {
		return nil, err
	}

	// Chain each key's right rows by position: head holds a key's first
	// position + 1 (so a missing key reads 0), next the position after
	// each, -1 at the end. Built back to front, a chain runs in input order.
	nl, nr := left.Len(), right.Len()
	head := make(map[int64]int32, nr)
	next := make([]int32, nr)
	for k := nr - 1; k >= 0; k-- {
		key := rk[right.row(k)]
		next[k] = head[key] - 1
		head[key] = int32(k) + 1
	}
	lrows, rrows := make([]int32, 0, nl), make([]int32, 0, nl)
	for k := 0; k < nl; k++ {
		li := int32(left.row(k))
		m := head[lk[li]] - 1
		if m < 0 && j.Type == LeftOuter {
			lrows, rrows = append(lrows, li), append(rrows, -1)
		}
		for ; m >= 0; m = next[m] {
			lrows, rrows = append(lrows, li), append(rrows, int32(right.row(int(m))))
		}
	}

	out := &Relation{
		Schema: joinSchema(left.Schema, right.Schema),
		Cols:   make([]Column, 0, len(left.Cols)+len(right.Cols)),
	}
	for c := range left.Cols {
		out.Cols = append(out.Cols, left.Cols[c].gather(lrows))
	}
	for c := range right.Cols {
		out.Cols = append(out.Cols, right.Cols[c].gather(rrows))
	}
	ctx.Stats.RowsProcessed += nl + nr + len(lrows)
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
// group) and computes the Aggs. Output schema is GroupBy ++ agg names;
// groups come out in the order their first row arrived. Counts are
// int64 columns, sums and averages float64.
type Aggregate struct {
	In      Node
	GroupBy []string
	Aggs    []AggSpec
}

// Execute implements Node.
func (a *Aggregate) Execute(ctx *Context) (*Relation, error) {
	in, err := a.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	keys := make([]*Column, len(a.GroupBy))
	for g, c := range a.GroupBy {
		pos, err := in.Schema.Index(c)
		if err != nil {
			return nil, err
		}
		keys[g] = &in.Cols[pos]
	}
	na := len(a.Aggs)
	wheres := make([]func(int) bool, na)
	vals := make([]func(int) float64, na)
	b := &Binder{in: in}
	for s, spec := range a.Aggs {
		if spec.Where != nil {
			wheres[s] = spec.Where(b)
		}
		if spec.Kind == Sum || spec.Kind == Avg {
			vals[s] = spec.Val(b)
		}
	}
	if b.err != nil {
		return nil, b.err
	}

	// first holds each group's first row (its key values); counts and
	// sums hold na accumulators per group.
	groups := newGroupIndex(keys)
	var first []int32
	var counts []int64
	var sums []float64
	n := in.Len()
	for k := 0; k < n; k++ {
		i := in.row(k)
		g, isNew := groups.group(i, int32(len(first)))
		if isNew {
			first = append(first, int32(i))
			for range na {
				counts, sums = append(counts, 0), append(sums, 0)
			}
		}
		acc := int(g) * na
		for s := range na {
			if wheres[s] != nil && !wheres[s](i) {
				continue
			}
			counts[acc+s]++
			if vals[s] != nil {
				sums[acc+s] += vals[s](i)
			}
		}
	}
	// A global aggregate over zero rows still yields one all-zero row,
	// matching SQL semantics for COUNT/SUM over empty input.
	if len(keys) == 0 && len(first) == 0 {
		first = []int32{-1}
		counts, sums = make([]int64, na), make([]float64, na)
	}

	out := &Relation{
		Schema: make(Schema, 0, len(keys)+na),
		Cols:   make([]Column, 0, len(keys)+na),
	}
	out.Schema = append(out.Schema, a.GroupBy...)
	for _, c := range keys {
		out.Cols = append(out.Cols, c.gather(first))
	}
	ng := len(first)
	for s, spec := range a.Aggs {
		out.Schema = append(out.Schema, spec.As)
		if spec.Kind == Count {
			v := make([]int64, ng)
			for g := range v {
				v[g] = counts[g*na+s]
			}
			out.Cols = append(out.Cols, Column{Kind: Int, Ints: v})
			continue
		}
		v := make([]float64, ng)
		for g := range v {
			switch sum, c := sums[g*na+s], counts[g*na+s]; {
			case spec.Kind == Sum:
				v[g] = sum
			case c > 0:
				v[g] = sum / float64(c)
			}
		}
		out.Cols = append(out.Cols, Column{Kind: Float, Floats: v})
	}
	ctx.Stats.RowsProcessed += n
	ctx.Stats.Stages++
	return out, nil
}

// groupIndex numbers an Aggregate's groups in first-seen order. A
// single Int column groups on its value, with nulls a group of their
// own; any other key on its groupKey bytes.
type groupIndex struct {
	keys  []*Column
	byKey map[string]int32
	byInt map[int64]int32 // set when keys is one Int column
	null  int32           // byInt's null group, or -1
	buf   []byte
}

func newGroupIndex(keys []*Column) *groupIndex {
	x := &groupIndex{keys: keys, null: -1}
	if len(keys) == 1 && keys[0].Kind == Int {
		x.byInt = make(map[int64]int32)
	} else {
		x.byKey = make(map[string]int32)
	}
	return x
}

// group returns row i's group and whether it is new; a new group is
// numbered next.
func (x *groupIndex) group(i int, next int32) (int32, bool) {
	if x.byInt == nil {
		x.buf = groupKey(x.buf[:0], x.keys, i)
		if g, ok := x.byKey[string(x.buf)]; ok {
			return g, false
		}
		x.byKey[string(x.buf)] = next
		return next, true
	}
	c := x.keys[0]
	if c.IsNull(i) {
		if x.null < 0 {
			x.null = next
			return next, true
		}
		return x.null, false
	}
	if g, ok := x.byInt[c.Ints[i]]; ok {
		return g, false
	}
	x.byInt[c.Ints[i]] = next
	return next, true
}

// groupKey appends row i's group key to b: per column a tag byte (0 for
// null), then the value's bits, or a string's length and bytes.
func groupKey(b []byte, keys []*Column, i int) []byte {
	for _, c := range keys {
		switch {
		case c.IsNull(i):
			b = append(b, 0)
		case c.Kind == Int:
			b = binary.LittleEndian.AppendUint64(append(b, 1), uint64(c.Ints[i]))
		case c.Kind == Float:
			b = binary.LittleEndian.AppendUint64(append(b, 1), math.Float64bits(c.Floats[i]))
		default:
			b = append(binary.AppendUvarint(append(b, 1), uint64(len(c.Strs[i]))), c.Strs[i]...)
		}
	}
	return b
}

// ---------------------------------------------------------------------------
// Map

// Map computes one float64 column row by row (e.g. the final ratio of
// Q14); its output is that column alone.
type Map struct {
	In  Node
	As  string
	Val ValueFn
}

// Execute implements Node.
func (m *Map) Execute(ctx *Context) (*Relation, error) {
	in, err := m.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	b := &Binder{in: in}
	val := m.Val(b)
	if b.err != nil {
		return nil, b.err
	}
	v := make([]float64, in.Len())
	for k := range v {
		v[k] = val(in.row(k))
	}
	ctx.Stats.RowsProcessed += len(v)
	return &Relation{Schema: Schema{m.As}, Cols: []Column{{Kind: Float, Floats: v}}}, nil
}

// ---------------------------------------------------------------------------
// Sort

// Sort orders rows stably with a comparison function.
type Sort struct {
	In   Node
	Less LessFn
}

// Execute implements Node.
func (s *Sort) Execute(ctx *Context) (*Relation, error) {
	in, err := s.In.Execute(ctx)
	if err != nil {
		return nil, err
	}
	b := &Binder{in: in}
	less := s.Less(b)
	if b.err != nil {
		return nil, b.err
	}
	perm := make([]int32, in.Len())
	for k := range perm {
		perm[k] = int32(in.row(k))
	}
	sort.SliceStable(perm, func(a, b int) bool { return less(int(perm[a]), int(perm[b])) })
	out := &Relation{Schema: in.Schema, Cols: make([]Column, len(in.Cols))}
	for c := range in.Cols {
		out.Cols[c] = in.Cols[c].gather(perm)
	}
	ctx.Stats.RowsProcessed += len(perm)
	ctx.Stats.Stages++
	return out, nil
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
	ctx.Stats.RowsOutput = rel.Len()
	return rel, ctx.Stats, nil
}
