// Package tafloc is a reproduction of "TafLoc: Time-adaptive and
// Fine-grained Device-free Localization with Little Cost" (Chang, Xiong,
// Chen, Wang, Hu, Fang, Wang — SIGCOMM 2016).
//
// TafLoc is an RSS-fingerprint device-free localization (DfL) system that
// keeps its fingerprint database fresh at a fraction of the usual cost:
// instead of re-surveying every grid cell when the environment drifts, it
// measures a handful of reference locations plus one empty-room capture
// and reconstructs the entire fingerprint matrix with the LoLi-IR
// low-rank optimization.
//
// The package re-exports the stable surface of the internal packages:
//
//   - Deployment simulation (the paper's hardware testbed substitute):
//     Deployment, TestbedConfig, PaperConfig, Channel, ChannelParams.
//   - The TafLoc system itself: System, Layout, LoLiOptions,
//     Reconstruction, reference selection, matchers.
//   - Baselines: RTIImager, RASSTracker.
//   - Evaluation harnesses that regenerate every figure of the paper:
//     Fig1, Fig3, Fig4, Fig5, DriftTable, CostTable, Ablation.
//   - The measurement-collection network pipeline: Collector, Fleet,
//     Orchestrator, RSSReport.
//   - The multi-zone serving layer (Service) with runtime zone
//     lifecycle, a versioned HTTP surface, and streaming position
//     watch; package client is the typed SDK for it and package
//     taflocerr the shared error taxonomy.
//
// Quickstart (v2 API — functional options everywhere):
//
//	dep, _ := tafloc.NewDeployment(tafloc.PaperConfig())
//	sys, _ := tafloc.OpenDeployment(dep,            // day-0 full survey
//	    tafloc.WithMatcher("wknn"))
//	// ... months pass, RSS drifts ...
//	refCols, _ := dep.SurveyCells(sys.References(), 90)
//	sys.UpdateContext(ctx, refCols, dep.VacantCapture(90, 100))
//	loc, _ := sys.Locate(dep.Channel.MeasureLive(p, 90))
//
// Serving and consuming zones over HTTP:
//
//	svc, _ := tafloc.NewService(tafloc.WithDetectThreshold(0.25))
//	svc.AddZone("lobby", sys)
//	svc.Start(ctx)
//	go http.ListenAndServe(":8750", svc.Handler())
//	...
//	cli, _ := client.Dial(ctx, "http://localhost:8750")
//	rep, _ := cli.NewReporter(ctx, "lobby")   // streaming NDJSON ingest
//	rep.Send(reports...)                      // auto-batched, acked, shed-counted
//	ch, _ := cli.Watch(ctx, "lobby")
//	for est := range ch { ... }
//	pts, _ := cli.Track(ctx, "lobby", 50)     // smoothed trajectory + velocity
//
// See the examples directory for runnable programs, docs/API.md for the
// HTTP protocol and error taxonomy, and EXPERIMENTS.md for the
// paper-vs-measured record.
package tafloc

import (
	"tafloc/internal/collector"
	"tafloc/internal/core"
	"tafloc/internal/eval"
	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/internal/rass"
	"tafloc/internal/rf"
	"tafloc/internal/rti"
	"tafloc/internal/serve"
	"tafloc/internal/store"
	"tafloc/internal/testbed"
	"tafloc/internal/track"
	"tafloc/internal/wire"
)

// Geometry primitives.
type (
	// Point is a 2-D position in metres.
	Point = geom.Point
	// Segment is one radio link's line-of-sight path.
	Segment = geom.Segment
	// Grid is the monitored area's cell discretization.
	Grid = geom.Grid
)

// NewGrid returns a grid covering width x height metres with square cells.
func NewGrid(width, height, cellSize float64) (*Grid, error) {
	return geom.NewGrid(width, height, cellSize)
}

// CrossedDeployment places m links alternating between vertical and
// horizontal orientations across a w x h area.
func CrossedDeployment(w, h float64, m int) []Segment {
	return geom.CrossedDeployment(w, h, m)
}

// Matrix is a dense row-major matrix of float64, the fingerprint database
// representation.
type Matrix = mat.Matrix

// NewMatrix returns a zero r x c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// Channel simulation (testbed substitute).
type (
	// Channel is the simulated radio environment.
	Channel = rf.Channel
	// ChannelParams configures the channel model.
	ChannelParams = rf.Params
)

// DefaultChannelParams returns the calibrated channel model parameters
// (drift anchored to the paper's 2.5 dBm @ 5 d and 6 dBm @ 45 d).
func DefaultChannelParams() ChannelParams { return rf.DefaultParams() }

// NewChannel builds a channel over the given links and grid.
func NewChannel(params ChannelParams, links []Segment, grid *Grid) (*Channel, error) {
	return rf.NewChannel(params, links, grid)
}

// Deployment types.
type (
	// Deployment is an instantiated testbed: grid, links, channel, and
	// survey-cost accounting.
	Deployment = testbed.Deployment
	// TestbedConfig describes a deployment.
	TestbedConfig = testbed.Config
	// SurveyCost is the human labor cost of a fingerprint campaign.
	SurveyCost = testbed.SurveyCost
)

// PaperConfig returns the paper's deployment: 96 cells of 0.6 m covered
// by 10 links.
func PaperConfig() TestbedConfig { return testbed.PaperConfig() }

// SquareConfig returns a deployment over an edge x edge area with links
// scaled to the perimeter (the Fig 4 sweep).
func SquareConfig(edge float64) TestbedConfig { return testbed.SquareConfig(edge) }

// NewDeployment builds a deployment from cfg.
func NewDeployment(cfg TestbedConfig) (*Deployment, error) { return testbed.New(cfg) }

// Core system types.
type (
	// System is the end-to-end TafLoc pipeline.
	System = core.System
	// Layout is the deployment geometry the fingerprint matrix is
	// defined over.
	Layout = core.Layout
	// LoLiOptions are the LoLi-IR reconstruction hyperparameters.
	LoLiOptions = core.LoLiOptions
	// ReferenceOptions controls reference-location selection.
	ReferenceOptions = core.ReferenceOptions
	// Reconstruction is the result of one LoLi-IR run.
	Reconstruction = core.Reconstruction
	// UpdateInput bundles the measurements a low-cost update consumes.
	UpdateInput = core.UpdateInput
	// Reconstructor runs LoLi-IR for one layout.
	Reconstructor = core.Reconstructor
	// SystemState is the complete calibrated state of a System, as
	// exported by System.ExportState and consumed by RestoreSystem —
	// the unit the persistence layer snapshots for warm restarts.
	SystemState = core.SystemState
	// Model is a System's immutable read plane — radio map, geometry,
	// observed mask, matcher, and vacant baseline frozen at one
	// calibration instant — published via System.Model. Any number of
	// goroutines may Locate against one Model without locks; Update
	// swaps in a successor without disturbing readers.
	Model = core.Model
	// Scratch holds the reusable per-call buffers of the matchers;
	// threading one through repeated Locate calls makes the steady
	// state allocation-free.
	Scratch = core.Scratch
	// Location is a localization estimate.
	Location = core.Location
	// Matcher locates live measurements against a database.
	Matcher = core.Matcher
	// NNMatcher is plain nearest-neighbour matching.
	NNMatcher = core.NNMatcher
	// KNNMatcher adds inverse-distance-weighted centroid refinement.
	KNNMatcher = core.KNNMatcher
	// BayesMatcher produces posterior confidences.
	BayesMatcher = core.BayesMatcher
	// WeightedKNNMatcher is the mask-aware matcher used after updates.
	WeightedKNNMatcher = core.WeightedKNNMatcher
	// Detector gates localization on target presence.
	Detector = core.Detector
)

// NewLayout validates and builds a Layout.
func NewLayout(links []Segment, grid *Grid, ellipseExcess float64) (*Layout, error) {
	return core.NewLayout(links, grid, ellipseExcess)
}

// DefaultLoLiOptions returns the LoLi-IR hyperparameters used in the
// experiments.
func DefaultLoLiOptions() LoLiOptions { return core.DefaultLoLiOptions() }

// DefaultReferenceOptions matches the paper's reference selection.
func DefaultReferenceOptions() ReferenceOptions { return core.DefaultReferenceOptions() }

// SelectReferences picks reference locations from a historical
// fingerprint matrix via rank-revealing QR.
func SelectReferences(x *Matrix, opts ReferenceOptions) ([]int, error) {
	return core.SelectReferences(x, opts)
}

// MaskFromSurvey derives the undistorted-entry mask B empirically from a
// day-0 survey.
func MaskFromSurvey(survey *Matrix, vacant []float64, thresholdDB float64) (*Matrix, error) {
	return core.MaskFromSurvey(survey, vacant, thresholdDB)
}

// NewScratch returns an empty matcher Scratch; buffers grow lazily and
// are reused across Locate calls. Give each goroutine its own.
func NewScratch() *Scratch { return core.NewScratch() }

// NewModel assembles an immutable localization Model from its parts,
// taking ownership of every argument (callers must not mutate them
// afterwards). Most callers want System.Model instead; this constructor
// exists for matcher experiments over a bare database.
func NewModel(layout *Layout, x, observed *Matrix, vacant []float64, refs []int, m Matcher) (*Model, error) {
	return core.NewModel(layout, x, observed, vacant, refs, m)
}

// RestoreSystem rebuilds a System from a state exported with
// System.ExportState, skipping every calibration step (survey, mask
// learning, reference selection) — the warm-start path. States decoded
// from damaged snapshots fail closed with taflocerr.ErrSnapshotCorrupt.
func RestoreSystem(st *SystemState) (*System, error) { return core.RestoreSystem(st) }

// Baselines.
type (
	// RTIImager is the Radio Tomographic Imaging baseline.
	RTIImager = rti.Imager
	// RTIOptions configures the imager.
	RTIOptions = rti.Options
	// RASSTracker is the RASS fingerprint-tracking baseline.
	RASSTracker = rass.Tracker
	// RASSOptions configures the tracker.
	RASSOptions = rass.Options
)

// NewRTIImager builds the RTI baseline for a deployment geometry.
func NewRTIImager(links []Segment, grid *Grid, opts RTIOptions) (*RTIImager, error) {
	return rti.NewImager(links, grid, opts)
}

// DefaultRTIOptions returns the published RTI parameterization adapted
// to our grids.
func DefaultRTIOptions() RTIOptions { return rti.DefaultOptions() }

// NewRASSTracker builds the RASS baseline over a fingerprint database.
func NewRASSTracker(x *Matrix, vacant []float64, grid *Grid, opts RASSOptions) (*RASSTracker, error) {
	return rass.NewTracker(x, vacant, grid, opts)
}

// DefaultRASSOptions returns the RASS configuration used in comparisons.
func DefaultRASSOptions() RASSOptions { return rass.DefaultOptions() }

// Evaluation harnesses.
type (
	// ExperimentConfig parameterizes the figure harnesses.
	ExperimentConfig = eval.ExperimentConfig
	// Figure is a reproducible figure (series + notes).
	Figure = eval.Figure
	// Table is a reproducible table.
	Table = eval.Table
	// CDF is an empirical cumulative distribution.
	CDF = eval.CDF
	// Summary holds order statistics of an error sample.
	Summary = eval.Summary
)

// DefaultExperimentConfig returns the harness configuration used by the
// benchmarks.
func DefaultExperimentConfig() ExperimentConfig { return eval.DefaultExperimentConfig() }

// Fig1 characterizes the fingerprint matrix structure (singular values,
// distorted share).
func Fig1(cfg ExperimentConfig) (*Figure, error) { return eval.Fig1(cfg) }

// Fig3 regenerates the fingerprint-reconstruction-error CDFs.
func Fig3(cfg ExperimentConfig) (*Figure, error) { return eval.Fig3(cfg) }

// Fig4 regenerates the update-time-cost area sweep.
func Fig4() (*Figure, error) { return eval.Fig4() }

// Fig5 regenerates the four-system localization comparison at 3 months.
func Fig5(cfg ExperimentConfig) (*Figure, error) { return eval.Fig5(cfg) }

// DriftTable regenerates the in-text drift measurements.
func DriftTable(cfg ExperimentConfig) (*Table, error) { return eval.DriftTable(cfg) }

// CostTable regenerates the in-text 6 m x 6 m cost arithmetic.
func CostTable() (*Table, error) { return eval.CostTable() }

// Ablation quantifies the LoLi-IR design choices.
func Ablation(cfg ExperimentConfig) (*Table, error) { return eval.Ablation(cfg) }

// Summarize computes order statistics of an error sample.
func Summarize(vals []float64) Summary { return eval.Summarize(vals) }

// NewCDF builds the empirical CDF of vals.
func NewCDF(vals []float64) CDF { return eval.NewCDF(vals) }

// Tracking and time-adaptive maintenance.
type (
	// TrackFilter is a constant-velocity Kalman filter over location
	// fixes, with innovation gating.
	TrackFilter = track.Filter
	// TrackOptions configures the filter.
	TrackOptions = track.Options
	// TrackState is the filter's kinematic estimate.
	TrackState = track.State
	// DriftMonitor recommends fingerprint updates from cheap drift
	// signals (the "time-adaptive" scheduling in the paper's title).
	DriftMonitor = core.DriftMonitor
	// DriftEstimate is one monitor assessment.
	DriftEstimate = core.DriftEstimate
)

// NewTrackFilter builds a trajectory filter.
func NewTrackFilter(opts TrackOptions) (*TrackFilter, error) { return track.NewFilter(opts) }

// DefaultTrackOptions suits walking targets localized about once per
// second.
func DefaultTrackOptions() TrackOptions { return track.DefaultOptions() }

// NewDriftMonitor builds a time-adaptive update trigger from baselines
// captured at the last update.
func NewDriftMonitor(vacant, spotCol []float64, spotCell int, triggerDB float64) (*DriftMonitor, error) {
	return core.NewDriftMonitor(vacant, spotCol, spotCell, triggerDB)
}

// Measurement-collection pipeline.
type (
	// Collector receives RSS report frames over UDP and serves the TCP
	// control plane.
	Collector = collector.Collector
	// Fleet runs one simulated link agent per channel link.
	Fleet = collector.Fleet
	// AgentConfig configures a fleet.
	AgentConfig = collector.AgentConfig
	// Orchestrator drives survey passes over the control plane.
	Orchestrator = collector.Orchestrator
	// RSSReport is the data-plane frame format.
	RSSReport = wire.RSSReport
	// TargetFunc reports the simulated target position to agents.
	TargetFunc = collector.TargetFunc
)

// NewCollector builds a collector for m links.
func NewCollector(m int) (*Collector, error) {
	return collector.New(m, 0, nil)
}

// Multi-zone serving layer.
type (
	// Service is the sharded, concurrent multi-zone localization service:
	// one core System per zone, bounded ingest queues, batched match
	// queries, and per-zone publication: a position read waits only on
	// zone registration changes and on its own zone's publish.
	Service = serve.Service
	// ServiceConfig tunes the service's queues, batching, and detection.
	ServiceConfig = serve.Config
	// Ingestor is the transport-agnostic ingestion surface every report
	// transport funnels through (implemented by *Service).
	Ingestor = serve.Ingestor
	// ZoneReport is one RSS sample addressed to one link of a zone.
	ZoneReport = serve.Report
	// ZoneEstimate is a zone's most recent published position estimate.
	ZoneEstimate = serve.Estimate
	// ZoneStats snapshots one zone's ingest and serving counters.
	ZoneStats = serve.ZoneStats
	// ZoneTrackPoint is one sample of a zone's smoothed trajectory, as
	// served by Service.Track and GET /v2/zones/{id}/track.
	ZoneTrackPoint = serve.TrackPoint
	// SnapshotStore is the pluggable snapshot store behind tiered zone
	// storage: CheckpointStore/RestoreStore targets and the backing
	// store of the hot-zone cap (WithMaxHotZones). Implement it to put zone
	// snapshots anywhere that can round-trip opaque bytes under a zone
	// ID; NewDirStore and NewMemStore are the built-in backends.
	SnapshotStore = store.Store
)

// NewDirStore opens the local-directory snapshot store rooted at dir:
// one atomically-replaced "<escaped-id>.snap" file per zone. Pass one
// handle as both the residency store (WithSnapshotStore) and the
// checkpoint target, so a checkpoint leaves cold zones' files alone.
func NewDirStore(dir string) SnapshotStore { return store.NewDir(dir) }

// NewMemStore returns an in-memory snapshot store: eviction with it
// bounds resident Models without touching disk (the snapshots do not
// survive the process).
func NewMemStore() SnapshotStore { return store.NewMem() }

// ReportFromWire converts a decoded data-plane frame into a service
// report.
func ReportFromWire(r *RSSReport) ZoneReport { return serve.FromWire(r) }

// IngestSink adapts an Ingestor into a collector batch sink for one
// zone — wire it with Collector.SetBatchSink so UDP batch datagrams
// travel the serving layer's shared ingest path (validation, load
// shedding, and counters identical to HTTP ingest).
func IngestSink(ing Ingestor, zone string) func([]RSSReport) { return serve.IngestSink(ing, zone) }

// SetWorkers sets the worker count used by the parallel reconstruction
// and matching kernels and returns the previous setting; n <= 0 restores
// the GOMAXPROCS-aware default.
func SetWorkers(n int) int { return mat.SetWorkers(n) }

// Workers returns the effective parallel worker count.
func Workers() int { return mat.Workers() }

// NewFleet dials a collector and prepares one agent per link.
func NewFleet(ch *Channel, dataAddr string, cfg AgentConfig) (*Fleet, error) {
	return collector.NewFleet(ch, dataAddr, cfg)
}

// DialOrchestrator connects to a collector's control address.
func DialOrchestrator(ctrlAddr string) (*Orchestrator, error) {
	return collector.Dial(ctrlAddr)
}
