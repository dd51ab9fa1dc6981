package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Span names: the layer boundary each span brackets.
const (
	spGenSend    uint8 = iota // one paced or closed-loop send (root)
	spIngest                  // Service.Ingest
	spClientSend              // client.ReportStream.Send
	spWatch                   // publish (Estimate.Time) to receipt by a watcher
	spUpdate                  // System.Update on a serving zone
	spLocate                  // Model.Locate replay
	spDetect                  // Model.Detect replay
	spSnapEncode              // snap.Encode
	spSnapDecode              // snap.Decode
	spStorePut                // store.Mem Put
	spStoreGet                // store.Mem Get
	spEvict                   // Service.EvictZone
	spRehydrate               // Service.RehydrateZone
	spTrack                   // track.Tracker.Observe, in chunks
	spAPIDecode               // JSON decode of one NDJSON report line
	spAPIEncode               // JSON encode of one estimate
	spUpdateIdle              // System.Update on an idle copy
	spReplay                  // a replay pass (root of the replay spans)
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"gen.send", "serve.ingest", "client.send", "serve.watch", "core.update",
	"core.locate", "core.detect", "snap.encode", "snap.decode", "store.put",
	"store.get", "serve.evict", "serve.rehydrate", "track.step", "api.decode_line",
	"api.encode_estimate", "core.update_idle", "replay",
}

// span is one timed call into a layer. Spans of one request share its
// id: the zone and the cumulative accepted-batch count it carries.
type span struct {
	name   uint8
	parent int32 // index of the enclosing span in the same tracer, -1 for a root
	zone   int32
	count  int64
	start  int64 // ns since the run's epoch
	end    int64
}

// maxSpans bounds one tracer's memory; spans beyond it are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps the spans of one goroutine in memory. A nil *tracer
// records nothing, so untraced paths pay one nil check per call.
type tracer struct {
	goroutine string
	spans     []span
	dropped   int
}

func newTracer(goroutine string) *tracer { return &tracer{goroutine: goroutine} }

// add records a finished span and returns its index (-1 when not kept).
func (t *tracer) add(name uint8, parent int32, zone int32, count, start, end int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, zone: zone, count: count, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// setParent attaches an already recorded span to a parent recorded after it.
func (t *tracer) setParent(child, parent int32) {
	if t != nil && child >= 0 {
		t.spans[child].parent = parent
	}
}

// selfTime is one span name's aggregate: calls, total time and self
// time, which is total time minus the time its child spans cover.
type selfTime struct {
	Name       string
	Calls      int
	TotalNs    int64
	SelfNs     int64
	Goroutines map[string]bool
}

// selfTimes aggregates every tracer's spans by name.
func selfTimes(tracers []*tracer) []selfTime {
	agg := map[uint8]*selfTime{}
	for _, t := range tracers {
		childNs := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				childNs[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			a := agg[s.name]
			if a == nil {
				a = &selfTime{Name: spanNames[s.name], Goroutines: map[string]bool{}}
				agg[s.name] = a
			}
			d := s.end - s.start
			self := d - childNs[i]
			if self < 0 {
				self = 0
			}
			a.Calls++
			a.TotalNs += d
			a.SelfNs += self
			a.Goroutines[t.goroutine] = true
		}
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out
}

// writeSpans writes every span as one tab-separated line to path.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "goroutine\tindex\tname\tparent\tzone\tcount\tstart_ns\tend_ns")
	for _, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
				t.goroutine, i, spanNames[s.name], s.parent, s.zone, s.count, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
