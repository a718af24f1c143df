// Package telemetry is the simulator's observability layer: a single sink
// that collects typed span events (what happened inside the write/read path,
// over *simulated* time) and periodic counter samples (dup ratio, cache hit
// rates, queue depth) from every component, and exports them as Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing.
//
// The sink is nil-safe by design: every component holds a *Tracer that is
// nil when tracing is off, and every method has an early nil return, so the
// hot path pays exactly one predictable branch and zero allocations when
// disabled. The abl-telemetry experiment asserts that an attached tracer
// causes no behavioral drift — emitters only observe timestamps, never
// advance them.
//
// The Tracer itself is safe for concurrent use (a mutex guards the buffers)
// so future parallel sharding of the simulator can share one sink; the race
// detector in CI gates this.
package telemetry

import (
	"sync"

	"dewrite/internal/units"
)

// Category types a span event. The categories mirror the stages of the
// paper's write path (Section III) plus the device-level queueing the
// speedups fall out of.
type Category uint8

// Span categories.
const (
	// CatPredict is the duplication-state prediction (combinational; an
	// instant event).
	CatPredict Category = iota
	// CatHash is the CRC-32 fingerprint computation.
	CatHash
	// CatVerifyRead is a candidate verify read + byte compare.
	CatVerifyRead
	// CatAES is a counter-mode line encryption or OTP generation.
	CatAES
	// CatMetadata is a metadata-table access through a metadata-cache
	// partition (hit or NVM fill).
	CatMetadata
	// CatBankQueue is time a request spent waiting for its NVM bank.
	CatBankQueue
	// CatBankService is the array read/write service time at a bank.
	CatBankService
	// CatRead is a whole CPU read request, issue to completion.
	CatRead
	// CatWrite is a whole CPU write request, issue to completion.
	CatWrite

	numCategories
)

// String returns the category's stable display name (used as the Chrome
// trace "cat" field, so it must stay machine-friendly).
func (c Category) String() string {
	switch c {
	case CatPredict:
		return "predict"
	case CatHash:
		return "hash"
	case CatVerifyRead:
		return "verify-read"
	case CatAES:
		return "aes"
	case CatMetadata:
		return "metadata"
	case CatBankQueue:
		return "bank-queue"
	case CatBankService:
		return "bank-service"
	case CatRead:
		return "read"
	case CatWrite:
		return "write"
	default:
		return "unknown"
	}
}

// Track identifiers group events into named rows ("threads" in the Chrome
// trace model). Emitters pick their track from these conventions.
const (
	// TrackPredict..TrackMetadata are the controller pipeline stages.
	TrackPredict  int32 = 1
	TrackHash     int32 = 2
	TrackVerify   int32 = 3
	TrackAES      int32 = 4
	TrackMetadata int32 = 5
	// TrackAttr carries the attribution layer's sampled-request phase spans.
	TrackAttr int32 = 6
	// TrackRequestBase + CPU thread index carries whole-request spans.
	TrackRequestBase int32 = 10
	// TrackBankBase + bank index carries device queue/service spans.
	TrackBankBase int32 = 100
)

// Event is one completed span over simulated time. Label optionally refines
// the display name (e.g. the metadata-cache partition); an empty label shows
// the category name.
type Event struct {
	Cat   Category
	Track int32
	Label string
	Start units.Time
	Dur   units.Duration
	Addr  uint64
}

// Sample is one point of a named counter series over simulated time.
type Sample struct {
	Name  string
	Time  units.Time
	Value float64
}

// DefaultMaxEvents bounds the span buffer and, separately, the sample
// buffer: beyond it spans and samples are counted but dropped, so a long run
// cannot exhaust memory. 4 Mi events ≈ 250 MB.
const DefaultMaxEvents = 4 << 20

// Tracer collects events and samples. The nil *Tracer is the disabled sink:
// every method is safe (and free) to call on it.
type Tracer struct {
	mu             sync.Mutex
	events         []Event
	samples        []Sample
	dropped        uint64
	droppedSamples uint64
	max            int
}

// New returns an enabled tracer holding up to maxEvents span events and up
// to maxEvents counter samples (DefaultMaxEvents when maxEvents <= 0).
func New(maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Tracer{max: maxEvents}
}

// Enabled reports whether the sink actually records.
func (t *Tracer) Enabled() bool { return t != nil }

// Span records one completed span from start to end on the given track.
// end must not precede start. addr is the line address the span concerns.
func (t *Tracer) Span(cat Category, track int32, label string, start, end units.Time, addr uint64) {
	if t == nil {
		return
	}
	dur := end.Sub(start)
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, Event{Cat: cat, Track: track, Label: label, Start: start, Dur: dur, Addr: addr})
	t.mu.Unlock()
}

// Instant records a zero-duration span (e.g. a prediction decision).
func (t *Tracer) Instant(cat Category, track int32, label string, at units.Time, addr uint64) {
	t.Span(cat, track, label, at, at, addr)
}

// Sample records one point of the named counter series. Series names are
// dotted paths ("core.dup_ratio", "metacache.hash.hit_rate").
func (t *Tracer) Sample(name string, now units.Time, value float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.samples) >= t.max {
		t.droppedSamples++
		t.mu.Unlock()
		return
	}
	t.samples = append(t.samples, Sample{Name: name, Time: now, Value: value})
	t.mu.Unlock()
}

// Len returns the number of recorded span events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of spans discarded after the buffer filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// DroppedSamples returns the number of counter samples discarded after the
// sample buffer filled.
func (t *Tracer) DroppedSamples() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedSamples
}

// Events returns a copy of the recorded spans in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Samples returns a copy of the recorded counter samples in emission order.
func (t *Tracer) Samples() []Sample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Sample(nil), t.samples...)
}

// CountByCategory returns how many spans were recorded per category.
func (t *Tracer) CountByCategory() map[Category]int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[Category]int)
	for _, e := range t.events {
		out[e.Cat]++
	}
	return out
}
