package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dewrite/internal/units"
)

// TestChromeTraceEscapesHostileNames: span labels and series names may carry
// control characters or quotes (a fuzzed workload tag, say). fmt's %q emits
// \x.. escapes for these, which is not valid JSON — the whole trace then
// fails to load. The writer must emit real JSON string escapes.
func TestChromeTraceEscapesHostileNames(t *testing.T) {
	trc := New(0)
	hostile := []string{
		"quote\"brace}",
		"ctrl\x01\x02tab\t",
		"newline\nreturn\r",
		"unicode sep ",
		"backslash\\slash/",
	}
	for i, name := range hostile {
		trc.Span(CatWrite, TrackHash, name, units.Time(uint64(i)*1000), units.Time(uint64(i)*1000+500), uint64(i))
		trc.Sample("series."+name, units.Time(uint64(i)*1000), float64(i))
	}

	var buf bytes.Buffer
	if err := trc.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace with hostile names is not valid JSON: %v\n%s", err, buf.String())
	}
	// Every hostile label must round-trip intact.
	got := make(map[string]bool)
	for _, e := range parsed.TraceEvents {
		got[e.Name] = true
	}
	for _, name := range hostile {
		if !got[name] {
			t.Errorf("label %q lost in the trace", name)
		}
		if !got["series."+name] {
			t.Errorf("series %q lost in the trace", "series."+name)
		}
	}
	if strings.Contains(buf.String(), `\x`) {
		t.Error(`trace contains \x escapes, which JSON parsers reject`)
	}
}

// TestConcurrentExport runs exports while other goroutines keep emitting
// spans and counter samples. Under -race this proves the export snapshot and
// the hot-path appends do not touch the buffers unsynchronized; the exported
// documents must also each be internally consistent JSON/CSV. The tracer is
// bounded so every run also exercises the at-cap path: the writers keep
// emitting until both buffers have overflowed, and each export stays a few
// megabytes however fast the writers are.
func TestConcurrentExport(t *testing.T) {
	trc := New(1 << 12)
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				at := units.Time(uint64(i) * 100)
				trc.Span(CatWrite, int32(w), "concurrent", at, at.Add(units.Duration(50)), uint64(i))
				trc.Sample("counter.load", at, float64(i))
			}
		}(w)
	}

	for round := 0; round < 20; round++ {
		var buf bytes.Buffer
		if err := trc.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var parsed map[string]any
		if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
			t.Fatalf("round %d: concurrent export produced invalid JSON: %v", round, err)
		}
		if err := trc.WriteMetricsCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	// Stop only once both caps have been hit, so the assertions below do not
	// depend on how much time the writers were scheduled for.
	for trc.Dropped() == 0 || trc.DroppedSamples() == 0 {
		runtime.Gosched()
	}
	close(stop)
	writers.Wait()
	if trc.Len() != 1<<12 || trc.Dropped() == 0 || trc.DroppedSamples() == 0 {
		t.Fatalf("after the writers stop: %d spans kept, %d spans and %d samples dropped; want the cap and both drop counts > 0",
			trc.Len(), trc.Dropped(), trc.DroppedSamples())
	}
}
