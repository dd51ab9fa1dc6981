package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tafloc/internal/api"
	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/internal/testbed"
)

// pacedRate is the open-loop batch rate of every workload's paced
// phase, over all its zones, per second. It stays well under saturation,
// so the paced latency is the service's path, not its queueing.
const pacedRate = 4000

// workload is one named traffic mix run against the service.
type workload struct {
	name string
	why  string
	// zones served, spread round-robin over deps simulated deployments.
	zones, deps int
	cfg         func() testbed.Config
	// liveDays is the drift age of the live traffic; the fingerprints
	// are always surveyed at day 0.
	liveDays float64
	// wire feeds the zone over one NDJSON report stream and reads it over
	// one SSE watch on loopback; otherwise Ingest and Watch run in process.
	wire bool
	// refreshEvery applies System.Update to one zone at a time, round
	// robin, at this period during the paced phase, the first refreshAfter
	// into it (0 = never). The stale database serves every zone for more
	// than a lap of the walker's path before its first refresh, and the
	// path crosses enough of the room that a zone's stale and refreshed
	// errors are averaged over much the same cells.
	refreshAfter, refreshEvery time.Duration
	// pool is the number of distinct batches generated per deployment,
	// taken along a closed walker path through waypoints random points.
	pool, waypoints int
}

func smallConfig() testbed.Config {
	c := testbed.PaperConfig()
	c.RoomW, c.RoomH, c.Links = 3.6, 2.4, 6
	return c
}

var workloads = []*workload{
	{
		name:  "locate-hot",
		why:   "Model.Locate on 400-cell zones is most of the CPU, so matcher and core work shows here and almost nowhere else",
		zones: 4, deps: 4,
		cfg:  func() testbed.Config { return testbed.SquareConfig(12) },
		pool: 8192, waypoints: 64,
	},
	{
		name:  "wire-stream",
		why:   "one zone over an NDJSON report stream and an SSE watch: JSON, net/http, acks and SSE dominate; the bypass for locate and residency",
		zones: 1, deps: 1,
		cfg:  smallConfig,
		wire: true, pool: 32768, waypoints: 256,
	},
	{
		name:  "refresh",
		why:   "the paper's time-adaptive path: LoLi-IR System.Update on serving zones beside locate reads, under day-45 drift",
		zones: 4, deps: 4,
		cfg:      testbed.PaperConfig,
		liveDays: 45, pool: 3072, waypoints: 48,
		refreshAfter: 3200 * time.Millisecond, refreshEvery: 400 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// deployment holds the generated inputs of one simulated deployment.
type deployment struct {
	layout *core.Layout
	survey *mat.Matrix // day-0 full survey
	vacant []float64   // day-0 vacant capture
	// Day-45 reference-cell survey and vacant capture, the inputs of a
	// LoLi-IR update (refresh workload only).
	refCols  *mat.Matrix
	vacant45 []float64
	// The live traffic: vecs[k] is batch k's per-link RSS, taken with the
	// walker at truth[k] on a closed path, and batches[k] the same as reports.
	vecs    [][]float64
	truth   []geom.Point
	batches [][]api.Report
}

// generate builds everything the benchmark feeds the service from the
// seed, before any timing starts.
func generate(w *workload, seed int64) ([]*deployment, error) {
	rnd := rand.New(rand.NewSource(seed))
	var deps []*deployment
	for d := 0; d < w.deps; d++ {
		// The deployments are the workload's fixed sites; the seed draws
		// the traffic on them: the walker paths.
		cfg := w.cfg()
		cfg.RF.Seed = uint64(d) + 1
		dep, err := testbed.New(cfg)
		if err != nil {
			return nil, err
		}
		layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, cfg.RF.MaskExcessM())
		if err != nil {
			return nil, err
		}
		g := &deployment{layout: layout}
		g.survey, _ = dep.Survey(0)
		g.vacant = dep.VacantCapture(0, 100)
		if w.refreshEvery > 0 {
			refs, err := core.SelectReferences(g.survey, core.DefaultReferenceOptions())
			if err != nil {
				return nil, err
			}
			g.refCols, _ = dep.SurveyCells(refs, 45)
			g.vacant45 = dep.VacantCapture(45, 100)
		}
		path := walkerPath(rnd, cfg.RoomW, cfg.RoomH, w.waypoints)
		for k := 0; k < w.pool; k++ {
			p := path.at(float64(k) / float64(w.pool))
			y := dep.Channel.MeasureLive(p, w.liveDays)
			batch := make([]api.Report, len(y))
			for i, v := range y {
				batch[i] = api.Report{Link: i, RSS: v}
			}
			g.vecs = append(g.vecs, y)
			g.truth = append(g.truth, p)
			g.batches = append(g.batches, batch)
		}
		deps = append(deps, g)
	}
	return deps, nil
}

// path is a closed polyline the walker follows at constant speed.
type path struct {
	pts []geom.Point
	cum []float64 // arc length at each vertex; cum[len(pts)] closes the loop
}

// walkerPath draws a closed path through n random waypoints kept 0.3 m
// inside a w × h room.
func walkerPath(rnd *rand.Rand, w, h float64, n int) *path {
	const margin = 0.3
	p := &path{}
	for i := 0; i < n; i++ {
		p.pts = append(p.pts, geom.Point{
			X: margin + rnd.Float64()*(w-2*margin),
			Y: margin + rnd.Float64()*(h-2*margin),
		})
	}
	p.cum = make([]float64, n+1)
	for i := 0; i < n; i++ {
		a, b := p.pts[i], p.pts[(i+1)%n]
		p.cum[i+1] = p.cum[i] + math.Hypot(b.X-a.X, b.Y-a.Y)
	}
	return p
}

// at returns the point a fraction f in [0, 1) of the way around the path.
func (p *path) at(f float64) geom.Point {
	n := len(p.pts)
	d := f * p.cum[n]
	i := 0
	for i < n-1 && p.cum[i+1] <= d {
		i++
	}
	a, b := p.pts[i], p.pts[(i+1)%n]
	seg := p.cum[i+1] - p.cum[i]
	t := 0.0
	if seg > 0 {
		t = (d - p.cum[i]) / seg
	}
	return geom.Point{X: a.X + t*(b.X-a.X), Y: a.Y + t*(b.Y-a.Y)}
}
