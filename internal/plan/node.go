// Package plan defines the logical operator DAGs that represent SCOPE-style
// jobs: scans, filters, projections, joins, aggregations, sorts, exchanges
// (shuffles), user-defined operators, and outputs.
//
// A plan is the unit the whole system operates on: signatures hash plan
// subgraphs, the analyzer enumerates them, the optimizer rewrites them to
// read from or write to materialized views, and the executor runs them.
package plan

import (
	"fmt"
	"sync/atomic"

	"cloudviews/internal/data"
	"cloudviews/internal/expr"
)

// OpKind identifies the operator type of a node. The names mirror the
// operator breakdown of paper Figure 4(a).
type OpKind int

// Operator kinds.
const (
	OpExtract OpKind = iota // leaf scan of a base table (SCOPE "Extract"/"Range")
	OpFilter
	OpProject // SCOPE "ComputeScalar"/"RestrRemap"
	OpHashJoin
	OpMergeJoin
	OpHashGbAgg
	OpStreamGbAgg
	OpSort
	OpExchange // shuffle
	OpUnionAll
	OpTop
	OpProcess // row-wise user-defined operator
	OpReduce  // group-wise user-defined operator
	OpSpool   // shared subtree marker (DAG fan-out point)
	OpOutput  // job output sink
	// OpViewScan reads a materialized view in a rewritten plan. It encodes
	// as the signature of the computation it replaces, so signatures of
	// ancestor operators are unaffected by the rewrite.
	OpViewScan
	// OpMaterialize tees its child's rows into a materialized view while
	// passing them through unchanged ("spool and materialize", paper §4).
	// It is transparent to signatures.
	OpMaterialize
)

var opKindNames = [...]string{
	"Extract", "Filter", "Project", "HashJoin", "MergeJoin", "HashGbAgg",
	"StreamGbAgg", "Sort", "Exchange", "UnionAll", "Top", "Process",
	"Reduce", "Spool", "Output", "ViewScan", "Materialize",
}

// String returns the operator name.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("Op(%d)", int(k))
}

// AggFn enumerates aggregate functions.
type AggFn int

// Aggregate functions.
const (
	AggSum AggFn = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

var aggNames = [...]string{"sum", "count", "min", "max", "avg"}

// String returns the aggregate function name.
func (a AggFn) String() string {
	if int(a) < len(aggNames) {
		return aggNames[a]
	}
	return fmt.Sprintf("agg(%d)", int(a))
}

// AggSpec is one aggregate in a group-by: Fn applied to input column Col.
type AggSpec struct {
	Fn  AggFn
	Col int
}

// PartitionKind classifies how an operator's output is partitioned.
type PartitionKind int

// Partitioning kinds.
const (
	PartNone       PartitionKind = iota // unknown / arbitrary
	PartHash                            // hash-partitioned on Cols
	PartRoundRobin                      // balanced, no key affinity
	PartSingleton                       // gathered to a single partition
	// PartRange splits on key ranges (equi-depth): partition i holds keys
	// below partition i+1's, and rows are sorted within each partition —
	// the layout SCOPE's parallel sorts produce and one of the physical
	// designs the analyzer can elect for views (§5.3).
	PartRange
)

var partNames = [...]string{"none", "hash", "roundrobin", "singleton", "range"}

// String returns the partitioning kind name.
func (p PartitionKind) String() string {
	if int(p) < len(partNames) {
		return partNames[p]
	}
	return fmt.Sprintf("part(%d)", int(p))
}

// Partitioning is an output partitioning property: kind, key columns, and
// partition count. It is both a derived property (what an operator emits)
// and a required property (what Exchange enforces).
type Partitioning struct {
	Kind  PartitionKind
	Cols  []int
	Count int
}

// SortOrder is an output ordering property.
type SortOrder struct {
	Cols []int
	Desc []bool
}

// PhysicalProps bundles the physical design of an operator output — the
// properties paper §5.3 mines for view physical design.
type PhysicalProps struct {
	Part Partitioning
	Sort SortOrder
}

// Node is one operator in a plan DAG. Exactly the fields relevant to Kind
// are populated; the rest stay zero. Children are inputs in operator order
// (join: [left, right]).
type Node struct {
	Kind     OpKind
	Children []*Node

	// OpExtract
	Table       string      // logical (normalized) input name
	GUID        string      // concrete data version (precise)
	TableSchema data.Schema // schema of the base table

	// OpFilter
	Pred expr.Expr

	// OpProject
	Exprs []expr.Expr
	Names []string

	// OpHashJoin / OpMergeJoin
	LeftKeys, RightKeys []int

	// OpHashGbAgg / OpStreamGbAgg / OpReduce (GroupBy only)
	GroupBy []int
	Aggs    []AggSpec

	// OpSort
	SortKeys []int
	Desc     []bool

	// OpExchange
	Part Partitioning

	// OpTop
	N int64

	// OpProcess / OpReduce
	UDOName     string
	UDOCodeHash string

	// OpOutput
	OutputName string

	// OpViewScan
	ViewPath       string
	ViewSchema     data.Schema
	ViewPreciseSig string
	ViewNormSig    string
	// ViewRows and ViewBytes are the *actual* statistics of the
	// materialized view, injected by the optimizer when it rewrites a
	// plan to read the view. The estimator propagates them up the tree,
	// which is how view reuse improves cost estimates (§6.3, §8).
	ViewRows  int64
	ViewBytes int64

	// OpMaterialize
	MatPath       string
	MatPreciseSig string
	MatNormSig    string
	MatProps      PhysicalProps // physical design enforced for the view

	// schema memoizes the derived schema. It is atomic because concurrent
	// jobs may share plan nodes and derive it at the same time.
	schema atomic.Pointer[data.Schema]
}

// Child returns the i-th input.
func (n *Node) Child(i int) *Node { return n.Children[i] }

// Schema derives (and memoizes) the output schema of the operator. It is
// safe to call from concurrent goroutines.
func (n *Node) Schema() data.Schema {
	if s := n.schema.Load(); s != nil {
		return *s
	}
	s := n.deriveSchema()
	n.schema.Store(&s)
	return s
}

// shallowCopy returns a copy of n with the same Children slice and an
// empty schema memo. The fields are listed one by one instead of copying
// *n, because another goroutine may be storing n's memo meanwhile.
func (n *Node) shallowCopy() *Node {
	return &Node{
		Kind: n.Kind, Children: n.Children,
		Table: n.Table, GUID: n.GUID, TableSchema: n.TableSchema,
		Pred:  n.Pred,
		Exprs: n.Exprs, Names: n.Names,
		LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
		GroupBy: n.GroupBy, Aggs: n.Aggs,
		SortKeys: n.SortKeys, Desc: n.Desc,
		Part:    n.Part,
		N:       n.N,
		UDOName: n.UDOName, UDOCodeHash: n.UDOCodeHash,
		OutputName: n.OutputName,
		ViewPath:   n.ViewPath, ViewSchema: n.ViewSchema,
		ViewPreciseSig: n.ViewPreciseSig, ViewNormSig: n.ViewNormSig,
		ViewRows: n.ViewRows, ViewBytes: n.ViewBytes,
		MatPath: n.MatPath, MatPreciseSig: n.MatPreciseSig,
		MatNormSig: n.MatNormSig, MatProps: n.MatProps,
	}
}

func (n *Node) deriveSchema() data.Schema {
	switch n.Kind {
	case OpExtract:
		return n.TableSchema
	case OpViewScan:
		return n.ViewSchema
	case OpFilter, OpSort, OpExchange, OpTop, OpSpool, OpOutput, OpMaterialize:
		return n.Children[0].Schema()
	case OpUnionAll:
		return n.Children[0].Schema()
	case OpProject:
		in := n.Children[0].Schema()
		out := make(data.Schema, len(n.Exprs))
		for i, e := range n.Exprs {
			name := ""
			if i < len(n.Names) {
				name = n.Names[i]
			}
			if name == "" {
				name = fmt.Sprintf("c%d", i)
			}
			out[i] = data.Column{Name: name, Kind: e.ResultKind(in)}
		}
		return out
	case OpHashJoin, OpMergeJoin:
		return n.Children[0].Schema().Concat(n.Children[1].Schema())
	case OpHashGbAgg, OpStreamGbAgg:
		in := n.Children[0].Schema()
		out := make(data.Schema, 0, len(n.GroupBy)+len(n.Aggs))
		for _, g := range n.GroupBy {
			out = append(out, in[g])
		}
		for _, a := range n.Aggs {
			kind := data.KindInt
			switch a.Fn {
			case AggAvg:
				kind = data.KindFloat
			case AggCount:
				kind = data.KindInt
			default:
				kind = in[a.Col].Kind
				if kind == data.KindDate || kind == data.KindBool {
					kind = data.KindInt
				}
			}
			out = append(out, data.Column{
				Name: fmt.Sprintf("%s_%s", a.Fn, in[a.Col].Name),
				Kind: kind,
			})
		}
		return out
	case OpProcess, OpReduce:
		in := n.Children[0].Schema()
		return in.Concat(data.Schema{{Name: "udo_" + n.UDOName, Kind: data.KindInt}})
	default:
		return nil
	}
}

// String renders the operator with its salient argument for display.
func (n *Node) String() string {
	switch n.Kind {
	case OpExtract:
		return fmt.Sprintf("Extract(%s@%s)", n.Table, n.GUID)
	case OpFilter:
		return fmt.Sprintf("Filter(%s)", n.Pred)
	case OpProject:
		return fmt.Sprintf("Project(%d exprs)", len(n.Exprs))
	case OpHashJoin, OpMergeJoin:
		return fmt.Sprintf("%s(%v=%v)", n.Kind, n.LeftKeys, n.RightKeys)
	case OpHashGbAgg, OpStreamGbAgg:
		return fmt.Sprintf("%s(by %v, %d aggs)", n.Kind, n.GroupBy, len(n.Aggs))
	case OpSort:
		return fmt.Sprintf("Sort(%v)", n.SortKeys)
	case OpExchange:
		return fmt.Sprintf("Exchange(%s %v x%d)", n.Part.Kind, n.Part.Cols, n.Part.Count)
	case OpTop:
		return fmt.Sprintf("Top(%d)", n.N)
	case OpProcess, OpReduce:
		return fmt.Sprintf("%s(%s)", n.Kind, n.UDOName)
	case OpOutput:
		return fmt.Sprintf("Output(%s)", n.OutputName)
	case OpViewScan:
		return fmt.Sprintf("ViewScan(%s)", n.ViewPath)
	case OpMaterialize:
		return fmt.Sprintf("Materialize(%s)", n.MatPath)
	default:
		return n.Kind.String()
	}
}
