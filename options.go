package tafloc

import (
	"time"

	"tafloc/internal/api"
	"tafloc/internal/core"
	"tafloc/internal/serve"
)

// Option configures a System built by Open or OpenDeployment. Options
// compose left to right; later options win on conflict.
type Option func(*SystemOptions)

// WithMatcher selects the localization matcher by registry name —
// "nn", "knn", "bayes", or "wknn" (the mask-aware default), plus any
// name installed with RegisterMatcher. Unknown names fail Open.
func WithMatcher(name string) Option {
	return func(c *SystemOptions) { c.MatcherName = name; c.Matcher = nil }
}

// WithMatcherImpl injects a concrete Matcher implementation, bypassing
// the registry.
func WithMatcherImpl(m Matcher) Option {
	return func(c *SystemOptions) { c.Matcher = m; c.MatcherName = "" }
}

// WithLoLi overrides the LoLi-IR reconstruction hyperparameters.
func WithLoLi(o LoLiOptions) Option {
	return func(c *SystemOptions) { c.LoLi = o }
}

// WithReferences overrides reference-location selection.
func WithReferences(o ReferenceOptions) Option {
	return func(c *SystemOptions) { c.Refs = o }
}

// WithRecSigma sets the assumed error std (dB) of reconstructed entries
// for the built-in weighted matcher.
func WithRecSigma(db float64) Option {
	return func(c *SystemOptions) { c.RecSigmaDB = db }
}

// WithMaskThreshold sets the |survey - vacant| deviation (dB) above
// which an entry counts as distorted when the mask is learned from the
// day-0 survey; negative forces the geometric ellipse mask.
func WithMaskThreshold(db float64) Option {
	return func(c *SystemOptions) { c.MaskThresholdDB = db }
}

// Open builds a System from a day-0 full survey with functional
// options:
//
//	sys, err := tafloc.Open(layout, survey, vacant,
//	    tafloc.WithMatcher("wknn"),
//	    tafloc.WithLoLi(loli))
func Open(layout *Layout, survey *Matrix, vacant []float64, opts ...Option) (*System, error) {
	c := core.DefaultSystemOptions()
	for _, o := range opts {
		o(&c)
	}
	return core.NewSystem(layout, survey, vacant, c)
}

// OpenDeployment surveys dep at day 0 and builds a System with the
// given options — the one-call quickstart path.
func OpenDeployment(dep *Deployment, opts ...Option) (*System, error) {
	layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, dep.Config.RF.MaskExcessM())
	if err != nil {
		return nil, err
	}
	survey, _ := dep.Survey(0)
	vacant := dep.VacantCapture(0, 100)
	return Open(layout, survey, vacant, opts...)
}

// ServiceOption configures a Service built by NewService.
type ServiceOption func(*serve.Config)

// WithZoneQueue sets the per-zone bounded ingest queue depth (pending
// batches before Ingest sheds load); depth <= 0 selects the minimum
// depth of 1.
func WithZoneQueue(depth int) ServiceOption {
	if depth <= 0 {
		depth = -1
	}
	return func(c *serve.Config) { c.QueueDepth = depth }
}

// WithBatch sets the maximum reports a zone worker folds per batched
// match query; size <= 0 means one match query per batch.
func WithBatch(size int) ServiceOption {
	if size <= 0 {
		size = -1
	}
	return func(c *serve.Config) { c.BatchSize = size }
}

// WithWindow sets the per-link live-window length; n <= 0 selects the
// minimum window of 1 (no averaging).
func WithWindow(n int) ServiceOption {
	if n <= 0 {
		n = -1
	}
	return func(c *serve.Config) { c.Window = n }
}

// WithDetectThreshold sets the presence-detection threshold in dB. An
// explicit db <= 0 disables presence gating entirely: every batch
// localizes, and published estimates always have Present set (the
// deviation signal is still computed and reported).
func WithDetectThreshold(db float64) ServiceOption {
	if db <= 0 {
		db = -1
	}
	return func(c *serve.Config) { c.DetectThresholdDB = db }
}

// WithLocateWorkers sets the size of the service's shared
// locate-executor pool: the goroutines that run every zone's fold and
// match rounds (default GOMAXPROCS). Zones are goroutine-free state
// machines, so this — not the zone count — bounds the service's compute
// concurrency; n <= 0 selects the minimum of one worker.
func WithLocateWorkers(n int) ServiceOption {
	if n <= 0 {
		n = -1
	}
	return func(c *serve.Config) { c.LocateWorkers = n }
}

// WithDetector selects the presence detector by registry name — "mad",
// "rms", "maxlink", or any name installed with RegisterDetector.
// NewService returns a taflocerr error for an unknown name.
func WithDetector(name string) ServiceOption {
	return func(c *serve.Config) { c.Detector = name }
}

// WithWatchBuffer sets the per-watcher event buffer length (minimum 1).
func WithWatchBuffer(n int) ServiceOption {
	if n <= 0 {
		n = -1
	}
	return func(c *serve.Config) { c.WatchBuffer = n }
}

// WithWatchHeartbeat sets how often idle SSE watch streams emit a
// ": heartbeat" comment so proxy idle timeouts do not kill them
// (default 15s). d <= 0 disables heartbeats.
func WithWatchHeartbeat(d time.Duration) ServiceOption {
	if d <= 0 {
		d = -1
	}
	return func(c *serve.Config) { c.WatchHeartbeat = d }
}

// WithHistory sets the per-zone ring depth of the published-estimate
// history and smoothed trajectory served over GET /v2/zones/{id}/history
// and /track (default 256). An explicit n <= 0 disables history and
// trajectory tracking entirely; the routes then answer unsupported.
func WithHistory(n int) ServiceOption {
	if n <= 0 {
		n = -1
	}
	return func(c *serve.Config) { c.History = n }
}

// WithTracking overrides the trajectory filter options used by every
// zone's publish-path Kalman smoother (default tafloc.DefaultTrackOptions).
// Invalid options fail NewService with a taflocerr error. Tracking is
// on whenever history is (see WithHistory); this option only tunes it.
func WithTracking(opts TrackOptions) ServiceOption {
	return func(c *serve.Config) { c.Track = opts }
}

// WithZoneFactory enables zone creation over the /v2 HTTP surface
// (POST /v2/zones/{id}): the factory receives the requested id and
// ZoneSpec and returns the backing System.
func WithZoneFactory(f ZoneFactory) ServiceOption {
	return func(c *serve.Config) { c.ZoneFactory = f }
}

// WithMaxHotZones caps how many zones may hold a resident Model at
// once. Over the cap, the least-recently-touched zone is checkpointed
// into the snapshot store (WithSnapshotStore, defaulting to an
// in-memory store) and its Model dropped; the zone stays registered and
// rehydrates transparently on its next report, locate, track, or
// snapshot request — a service can therefore register far more zones
// than fit in memory. n <= 0 selects the minimum cache of one hot zone;
// omit the option entirely for the default of no cap.
func WithMaxHotZones(n int) ServiceOption {
	if n <= 0 {
		n = -1
	}
	return func(c *serve.Config) { c.MaxHotZones = n }
}

// WithSnapshotStore sets the snapshot store behind the residency tier:
// where evicted zones' Models are checkpointed to and rehydrated from
// (see WithMaxHotZones), and the target of Service.EvictZone. Use
// NewDirStore to share the checkpointer's state directory, so evicted
// state and crash-recovery state are one artifact; NewMemStore bounds
// memory without touching disk.
func WithSnapshotStore(st SnapshotStore) ServiceOption {
	return func(c *serve.Config) { c.Store = st }
}

// NewService builds an empty multi-zone service with functional
// options; register zones with Service.AddZone (before or after Start):
//
//	svc, err := tafloc.NewService(
//	    tafloc.WithZoneQueue(512),
//	    tafloc.WithDetector("rms"),
//	    tafloc.WithZoneFactory(factory))
//
// Invalid configurations — an unregistered detector name, say — are
// returned as taflocerr errors, never panics.
func NewService(opts ...ServiceOption) (*Service, error) {
	var cfg serve.Config
	for _, o := range opts {
		o(&cfg)
	}
	return serve.NewService(cfg)
}

// Registry surface: strategy injection by name.

// MatcherFactory builds a Matcher for the registry.
type MatcherFactory = core.MatcherFactory

// DetectorFactory builds a presence detector for the registry.
type DetectorFactory = core.DetectorFactory

// Presence is the detection-gate interface.
type Presence = core.Presence

// RegisterMatcher installs a named matcher strategy, selectable via
// WithMatcher and the -matcher flags of the commands.
func RegisterMatcher(name string, f MatcherFactory) error { return core.RegisterMatcher(name, f) }

// RegisterDetector installs a named presence-detection strategy,
// selectable via WithDetector.
func RegisterDetector(name string, f DetectorFactory) error { return core.RegisterDetector(name, f) }

// MatcherNames lists the registered matcher names, sorted.
func MatcherNames() []string { return core.MatcherNames() }

// DetectorNames lists the registered detector names, sorted.
func DetectorNames() []string { return core.DetectorNames() }

// NewMatcherByName builds a matcher from the registry.
func NewMatcherByName(name string) (Matcher, error) { return core.NewMatcherByName(name) }

// Wire and lifecycle types of the v2 service surface.
type (
	// ZoneFactory builds a System for a zone created over the wire.
	ZoneFactory = serve.ZoneFactory
	// ZoneSpec parameterizes server-side zone creation.
	ZoneSpec = api.ZoneSpec
)
