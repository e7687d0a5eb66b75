package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "disk", Value: "0"}. Labels
// are ordered: the same pairs in a different order name a different
// series, so instrument sites should use a fixed order.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the metric types a Registry holds.
type Kind int

const (
	// KindCounter is a monotonically increasing integer.
	KindCounter Kind = iota
	// KindGauge is a float that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
	// KindFloatCounter is a monotonically increasing float total (exposed
	// with Prometheus counter semantics).
	KindFloatCounter
)

// entry is one registered metric series.
type entry struct {
	name   string
	help   string
	labels []Label
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	fc     *FloatCounter
}

// Registry names metrics and exposes them as snapshots and Prometheus
// text. Registration takes a lock; the returned metric pointers are then
// used lock-free, so hot paths should capture them once at setup.
type Registry struct {
	mu      sync.Mutex
	entries []entry
	byID    map[string]int
	// count mirrors len(entries) so NumSeries — the growth check a
	// sampler runs every round — never takes the registry lock.
	count atomic.Int64

	// Scrape hooks run before every Snapshot/WritePrometheus so
	// pull-model sources (runtime stats) can refresh their series. A
	// scrape only reads: no hook records what the registry holds.
	// Guarded by their own mutex and invoked outside both locks: a hook
	// is free to touch registered metrics, never the registry itself.
	hookMu   sync.Mutex
	hooks    []func()
	hookKeys map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]int), hookKeys: make(map[string]bool)}
}

// OnScrapeOnce registers fn to run before every snapshot or exposition,
// under a dedup key: re-registering the same key is a no-op, so
// idempotent setup paths (every mux construction calling
// RegisterRuntimeMetrics) install one hook, not many.
func (r *Registry) OnScrapeOnce(key string, fn func()) {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	if r.hookKeys[key] {
		return
	}
	r.hookKeys[key] = true
	r.hooks = append(r.hooks, fn)
}

// runScrapeHooks invokes the registered hooks outside every lock.
func (r *Registry) runScrapeHooks() {
	r.hookMu.Lock()
	hooks := r.hooks
	r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// seriesID is the unique key of a (name, labels) pair.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register adds (or re-finds) a series; it panics on a malformed name or
// on re-registering the same series as a different kind — both programmer
// errors at setup time, never data-dependent.
func (r *Registry) register(e entry) entry {
	if !validName(e.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", e.name))
	}
	for _, l := range e.labels {
		if l.Key == "" || l.Key == "le" {
			panic(fmt.Sprintf("telemetry: invalid label key %q on %q", l.Key, e.name))
		}
	}
	id := seriesID(e.name, e.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byID[id]; ok {
		if r.entries[i].kind != e.kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as a different kind", id))
		}
		return r.entries[i]
	}
	r.byID[id] = len(r.entries)
	r.entries = append(r.entries, e)
	r.count.Store(int64(len(r.entries)))
	return e
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	e := r.register(entry{name: name, help: help, labels: labels, kind: KindCounter, c: new(Counter)})
	return e.c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	e := r.register(entry{name: name, help: help, labels: labels, kind: KindGauge, g: new(Gauge)})
	return e.g
}

// FloatCounter registers (or returns the existing) float-counter series.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	e := r.register(entry{name: name, help: help, labels: labels, kind: KindFloatCounter, fc: new(FloatCounter)})
	return e.fc
}

// Histogram registers (or returns the existing) histogram series over the
// given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) (*Histogram, error) {
	h, err := NewHistogram(bounds)
	if err != nil {
		return nil, err
	}
	e := r.register(entry{name: name, help: help, labels: labels, kind: KindHistogram, h: h})
	return e.h, nil
}

// AdoptCounter registers an externally owned counter (e.g. the model
// package's process-wide solver counters) under this registry. Adopting
// the same series twice is a no-op returning the first adoption.
func (r *Registry) AdoptCounter(name, help string, c *Counter, labels ...Label) {
	r.register(entry{name: name, help: help, labels: labels, kind: KindCounter, c: c})
}

// AdoptHistogram registers an externally owned histogram.
func (r *Registry) AdoptHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(entry{name: name, help: help, labels: labels, kind: KindHistogram, h: h})
}

// Series is one registered series' identity plus a live handle to its
// metric — the enumeration a sampler (internal/history) captures once at
// attach time so its per-round hot path reads atomics with no registry
// lookups and no allocation.
type Series struct {
	Name   string
	Labels []Label
	Kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	fc     *FloatCounter
}

// ID returns the unique series key: the name followed by one {k=v} pair
// per label in registration order (the registry's own identity format).
func (s Series) ID() string { return seriesID(s.Name, s.Labels) }

// Read returns the series' current scalar: the count of a counter, the
// level of a gauge, the total of a float counter, and the observation
// count of a histogram. Lock-free and allocation-free; the pointer
// receiver lets a sampler that keeps the Series in a long-lived record
// skip the struct copy (name, label slice, four handles) on its
// per-round, every-series hot path.
func (s *Series) Read() float64 {
	switch s.Kind {
	case KindCounter:
		return float64(s.c.Value())
	case KindGauge:
		return s.g.Value()
	case KindFloatCounter:
		return s.fc.Value()
	case KindHistogram:
		return float64(s.h.Count())
	}
	return 0
}

// Histogram returns the live histogram of a KindHistogram series, nil
// for scalar kinds.
func (s Series) Histogram() *Histogram {
	if s.Kind != KindHistogram {
		return nil
	}
	return s.h
}

// NumSeries returns how many series are registered — the cheap growth
// check a sampler runs each round to decide whether to re-enumerate.
// Lock-free: it reads an atomic mirror of the entry count.
func (r *Registry) NumSeries() int {
	return int(r.count.Load())
}

// Series enumerates the registered series in registration order. The
// label slices are copies; the metric handles are live, so retaining the
// result lets a caller read current values lock-free forever after.
// Entries are append-only, so a caller that remembers how many series it
// has seen can attach just the tail of a later enumeration.
func (r *Registry) Series() []Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Series, len(r.entries))
	for i, e := range r.entries {
		out[i] = Series{
			Name:   e.name,
			Labels: append([]Label(nil), e.labels...),
			Kind:   e.kind,
			c:      e.c,
			g:      e.g,
			h:      e.h,
			fc:     e.fc,
		}
	}
	return out
}

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// FloatCounterPoint is one float-counter series in a snapshot.
type FloatCounterPoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot.
type HistogramPoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	HistogramValues
}

// Snapshot is an immutable copy of every registered series, in
// registration order. It is safe to retain, marshal, and compare; nothing
// in it aliases live metric state.
type Snapshot struct {
	Counters      []CounterPoint      `json:"counters,omitempty"`
	Gauges        []GaugePoint        `json:"gauges,omitempty"`
	FloatCounters []FloatCounterPoint `json:"float_counters,omitempty"`
	Histograms    []HistogramPoint    `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.runScrapeHooks()
	r.mu.Lock()
	entries := append([]entry(nil), r.entries...)
	r.mu.Unlock()
	var s Snapshot
	for _, e := range entries {
		labels := append([]Label(nil), e.labels...)
		switch e.kind {
		case KindCounter:
			s.Counters = append(s.Counters, CounterPoint{Name: e.name, Labels: labels, Value: e.c.Value()})
		case KindGauge:
			s.Gauges = append(s.Gauges, GaugePoint{Name: e.name, Labels: labels, Value: e.g.Value()})
		case KindFloatCounter:
			s.FloatCounters = append(s.FloatCounters, FloatCounterPoint{Name: e.name, Labels: labels, Value: e.fc.Value()})
		case KindHistogram:
			s.Histograms = append(s.Histograms, HistogramPoint{Name: e.name, Labels: labels, HistogramValues: e.h.SnapshotValues()})
		}
	}
	return s
}

// matchLabels reports whether want is exactly the label set got.
func matchLabels(got, want []Label) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// FloatCounter returns the value of the named float-counter series.
func (s Snapshot) FloatCounter(name string, labels ...Label) (float64, bool) {
	for _, c := range s.FloatCounters {
		if c.Name == name && matchLabels(c.Labels, labels) {
			return c.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram series.
func (s Snapshot) Histogram(name string, labels ...Label) (HistogramPoint, bool) {
	for _, h := range s.Histograms {
		if h.Name == name && matchLabels(h.Labels, labels) {
			return h, true
		}
	}
	return HistogramPoint{}, false
}
