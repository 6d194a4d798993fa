// Package cloudviews is the public API of the CloudViews reproduction —
// an end-to-end computation-reuse framework for an analytics job service,
// after "Computation Reuse in Analytics Job Service at Microsoft"
// (SIGMOD 2018).
//
// The package re-exports the stable surface of the internal packages:
//
//   - building base tables and delivering recurring data batches (Catalog,
//     Table, Schema),
//   - authoring jobs as operator DAGs (Scan and the builder methods on
//     *Plan),
//   - running a CloudViews-enabled job service (NewService, Service,
//     JobSpec),
//   - mining the workload and selecting views (AnalyzerConfig, Analysis),
//   - and generating evaluation workloads (production-like recurring
//     clusters and TPC-DS).
//
// The quickest tour is examples/quickstart: two overlapping jobs, where
// the first materializes the shared computation and the second reuses it.
package cloudviews

import (
	"cloudviews/internal/analyzer"
	"cloudviews/internal/catalog"
	"cloudviews/internal/core"
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/fault"
	"cloudviews/internal/metadata"
	"cloudviews/internal/obs"
	"cloudviews/internal/plan"
	"cloudviews/internal/script"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
	"cloudviews/internal/tpcds"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// ---- Data layer ----------------------------------------------------------

// Value is a dynamically typed scalar; Row a tuple; Schema an ordered list
// of columns; Table a named, partitioned row set whose GUID identifies the
// delivered data version.
type (
	Value  = data.Value
	Row    = data.Row
	Column = data.Column
	Schema = data.Schema
	Table  = data.Table
)

// Value constructors.
var (
	Int   = data.Int
	Float = data.Float
	Str   = data.String_
	Bool  = data.Bool
	Date  = data.Date
	Null  = data.Null
)

// Kind constants for schema columns.
const (
	KindInt    = data.KindInt
	KindFloat  = data.KindFloat
	KindString = data.KindString
	KindBool   = data.KindBool
	KindDate   = data.KindDate
)

// NewTable creates an empty partitioned table.
var NewTable = data.NewTable

// Catalog tracks base tables and their delivered versions.
type Catalog = catalog.Catalog

// NewCatalog returns an empty catalog.
var NewCatalog = catalog.New

// ---- Plans and expressions ------------------------------------------------

// Plan is one operator of a job DAG; jobs are built fluently from Scan.
type (
	Plan    = plan.Node
	AggSpec = plan.AggSpec
	Expr    = expr.Expr
)

// Operator and aggregate constructors.
var (
	Scan = plan.Scan
	// Expression constructors: column reference, literal, recurring
	// parameter, binary op, function call.
	Col   = expr.C
	Lit   = expr.Lit
	Param = expr.P
	Bin   = expr.B
	Fn    = expr.F
	Eq    = expr.Eq
	And   = expr.And
)

// Aggregate functions.
const (
	AggSum   = plan.AggSum
	AggCount = plan.AggCount
	AggMin   = plan.AggMin
	AggMax   = plan.AggMax
	AggAvg   = plan.AggAvg
)

// Comparison and arithmetic operators for Bin.
const (
	OpAdd = expr.OpAdd
	OpSub = expr.OpSub
	OpMul = expr.OpMul
	OpDiv = expr.OpDiv
	OpEq  = expr.OpEq
	OpNe  = expr.OpNe
	OpLt  = expr.OpLt
	OpLe  = expr.OpLe
	OpGt  = expr.OpGt
	OpGe  = expr.OpGe
	OpAnd = expr.OpAnd
	OpOr  = expr.OpOr
)

// Signature pairs the precise and normalized hashes of a computation.
type Signature = signature.Signature

// SignatureOf computes the signature of a plan subgraph.
var SignatureOf = signature.Of

// ---- The job service -------------------------------------------------------

// Service is the CloudViews-enabled job service; Config its switches;
// JobSpec one submission; JobResult one completed job; JobMeta the job's
// identity and recurrence metadata.
type (
	Service   = core.Service
	Config    = core.Config
	JobSpec   = core.JobSpec
	JobResult = core.JobResult
	JobMeta   = workload.JobMeta
)

// NewService wires a complete in-process job service around a catalog.
var NewService = core.NewService

// BatchOptions configures Service.RunBatch, the batch submission entry
// point (Service.Run is its single-job sibling).
type BatchOptions = core.BatchOptions

// ---- Observability ---------------------------------------------------------

// ServiceStats is the unified, versioned stats surface returned by
// Service.Snapshot — recovery, storage, scheduler, breaker, and metric
// counters in one value. SchedulerStats and BreakerStats are
// its nested slices; ServiceObserver is the observability layer itself
// (Service.SetObserver swaps or removes it).
type (
	ServiceStats    = core.ServiceStats
	SchedulerStats  = core.SchedulerStats
	BreakerStats    = core.BreakerStats
	ServiceObserver = core.Observer
)

// StatsSchemaVersion identifies the ServiceStats layout.
const StatsSchemaVersion = core.StatsSchemaVersion

// NewObserver builds an observability layer for Service.SetObserver:
// capacity 0 keeps the default trace ring, negative disables tracing.
var NewObserver = core.NewObserver

// Span is one node of a job trace (a logical-clock interval with
// attributes and children); Trace is a job's span tree, exported as
// stable order-normalized JSON by Trace.JSON; Metrics is the counter /
// gauge / histogram snapshot inside ServiceStats. Traces are retrieved
// with Service.Trace(jobID) and are byte-deterministic for a fixed seed
// across serial and parallel execution.
type (
	Span    = obs.Span
	Trace   = obs.Trace
	Metrics = obs.MetricsSnapshot
)

// JobError is the typed failure the lifecycle layer returns — the job
// that failed, a JobErrorReason (cancelled / deadline / shed /
// dependency), and the underlying cause reachable via errors.Is/As.
// Submissions with per-job deadlines (JobSpec.Deadline on the logical
// clock) or cancellable contexts go through Service.Run; graceful
// shutdown through Service.Drain, after which submissions fail shed with
// ErrDraining as the cause.
type (
	JobError       = core.JobError
	JobErrorReason = core.JobErrorReason
)

// Lifecycle failure reasons carried by JobError.
const (
	ReasonCancelled  = core.ReasonCancelled
	ReasonDeadline   = core.ReasonDeadline
	ReasonShed       = core.ReasonShed
	ReasonDependency = core.ReasonDependency
)

// ErrDraining is the cause inside the shed JobError returned for
// submissions arriving after Service.Drain began.
var ErrDraining = core.ErrDraining

// FaultConfig sets the per-class probabilities of a seeded fault schedule;
// FaultInjector is the deterministic injector Service.InstallFaults wires
// into every layer; RecoveryStats is the service-wide recovery counters
// in Service.Snapshot().Recovery.
type (
	FaultConfig   = fault.Config
	FaultInjector = fault.Injector
	RecoveryStats = core.RecoveryStats
)

// StorageStats is the storage byte gauges in Service.Snapshot().Storage:
// resident encoded view bytes plus the decoded
// hot-view cache's entries, bytes, and hit/miss/eviction counters
// (CacheStats).
type (
	StorageStats = core.StorageStats
	CacheStats   = storage.CacheStats
)

// NewFaultInjector builds an injector from a seeded fault schedule.
var NewFaultInjector = fault.NewInjector

// Annotation is one analyzer-selected view the metadata service serves.
type Annotation = metadata.Annotation

// ---- The analyzer -----------------------------------------------------------

// AnalyzerConfig tunes one analyzer run; Analysis is its output;
// Candidate one overlapping computation; OverlapStats the workload's
// overlap profile (the paper's Figures 1–5 raw material).
type (
	AnalyzerConfig = analyzer.Config
	Analysis       = analyzer.Analysis
	Candidate      = analyzer.Candidate
	OverlapStats   = analyzer.OverlapStats
)

// Selection strategies for AnalyzerConfig.Strategy.
const (
	TopKUtility              = analyzer.TopKUtility
	TopKUtilityPerByte       = analyzer.TopKUtilityPerByte
	PackStorageBudget        = analyzer.PackStorageBudget
	PackStorageBudgetOptimal = analyzer.PackStorageBudgetOptimal
)

// Repository is the workload repository behind the feedback loop;
// Observation is one subgraph occurrence reconciled with runtime
// statistics.
type (
	Repository  = workload.Repository
	Observation = workload.Observation
)

// ComputeOverlapStats derives the overlap profile of a set of subgraph
// observations (the §2 analysis).
var ComputeOverlapStats = analyzer.ComputeOverlapStats

// LoadRepository reads a workload repository previously written with
// Repository.Save — the durable form the offline analyzer consumes.
var LoadRepository = workload.Load

// ---- Workload generators ------------------------------------------------------

// WorkloadProfile configures a generated production-like cluster;
// GeneratedWorkload is the cluster; GeneratedJob one submittable job.
type (
	WorkloadProfile   = workgen.Profile
	GeneratedWorkload = workgen.Workload
	GeneratedJob      = workgen.Job
)

// GenerateWorkload builds a recurring, overlapping cluster workload, and
// DefaultWorkloadProfile returns a mid-sized starting point.
var (
	GenerateWorkload       = workgen.Generate
	DefaultWorkloadProfile = workgen.DefaultProfile
)

// TPCDSBuilder builds the 99 TPC-DS queries; TPCDSQuery is one of them.
type (
	TPCDSBuilder = tpcds.Builder
	TPCDSQuery   = tpcds.Query
)

// GenerateTPCDS builds a TPC-DS catalog at the given scale factor.
var GenerateTPCDS = tpcds.Generate

// ---- Scripts -----------------------------------------------------------------

// ScriptParams binds recurring parameters (@day, …) for one instance;
// CompiledScript is a compiled script's plans.
type (
	ScriptParams   = script.Params
	CompiledScript = script.Compiled
)

// CompileScript compiles a SCOPE-like script (see package
// internal/script's doc comment for the grammar) against the catalog's
// current table versions. Scripts are recurring templates: recompiling
// with new parameter bindings yields plans with the same normalized but
// new precise signatures.
var CompileScript = script.Compile
