package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Name is "<layer>.<call>"; the layer is the text before the first dot.
// Parent is the span that caused this one (0 for a root) and Op the
// workload operation the span served (0 for layer replays).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// recorder holds spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	r *recorder
	s span
}

// start opens a span now.
func (r *recorder) start(name string, parent, op int64) *openSpan {
	return r.startAt(name, parent, op, time.Now())
}

// startAt opens a span that began at t.
func (r *recorder) startAt(name string, parent, op int64, t time.Time) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &openSpan{r: r, s: span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(t.Sub(r.epoch))}}
}

// id returns the span's id, 0 for a nil span.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span now.
func (o *openSpan) end() {
	if o != nil {
		o.endUnder(time.Now(), o.s.Parent, o.s.Op)
	}
}

// endUnder closes the span at t as a child of the given span and op.
// Spans the server opens learn which client call they serve only once
// that call has registered.
func (o *openSpan) endUnder(t time.Time, parent, op int64) {
	if o == nil {
		return
	}
	o.s.End = int64(t.Sub(o.r.epoch))
	o.s.Parent, o.s.Op = parent, op
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are clipped to the
// parent's interval and overlapping children are counted once, so a
// parent waiting on two concurrent calls is not charged twice.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered measures the union of the intervals clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	Total  float64 `json:"total_ms"`
	Self   float64 `json:"self_ms"`
	Shared float64 `json:"self_pct"`
}

// layerTable sums span and self time per layer, largest self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	var all int64
	for _, s := range spans {
		r := rows[s.layer()]
		if r == nil {
			r = &layerRow{Layer: s.layer()}
			rows[s.layer()] = r
		}
		r.Spans++
		r.Total += float64(s.End-s.Start) / 1e6
		r.Self += float64(self[s.ID]) / 1e6
		all += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		if all > 0 {
			r.Shared = r.Self / (float64(all) / 1e6) * 100
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// printLayerTable writes the per-layer table as comment lines.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "# %-12s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self_%")
	for _, r := range rows {
		fmt.Fprintf(w, "# %-12s %8d %12.3f %12.3f %7.2f\n", r.Layer, r.Spans, r.Total, r.Self, r.Shared)
	}
}

// writeTrace writes the layer table of the workload's traced window,
// its spans and the layer replays' spans as JSON.
func writeTrace(path string, rows []layerRow, spans, replays []span) error {
	b, err := json.Marshal(struct {
		Layers  []layerRow `json:"layers"`
		Spans   []span     `json:"spans"`
		Replays []span     `json:"replay_spans"`
	}{rows, spans, replays})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
