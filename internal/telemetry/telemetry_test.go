package telemetry

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"dewrite/internal/units"
)

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var trc *Tracer
	if trc.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every method must be a no-op on the nil sink.
	trc.Span(CatAES, TrackAES, "", 0, 10, 42)
	trc.Instant(CatPredict, TrackPredict, "", 5, 1)
	trc.Sample("x", 0, 1.5)
	if trc.Len() != 0 || trc.Dropped() != 0 || trc.Events() != nil || trc.Samples() != nil {
		t.Fatal("nil tracer retained state")
	}
	allocs := testing.AllocsPerRun(100, func() {
		trc.Span(CatHash, TrackHash, "", 0, 15, 7)
		trc.Sample("y", 0, 2)
	})
	if allocs != 0 {
		t.Fatalf("disabled sink allocated %v per op, want 0", allocs)
	}
}

func TestSpanAndSampleRecording(t *testing.T) {
	trc := New(0)
	trc.Span(CatHash, TrackHash, "", 100, 115, 0x2a)
	trc.Span(CatMetadata, TrackMetadata, "addrmap", 115, 120, 3)
	trc.Sample("core.dup_ratio", 120, 0.5)
	if trc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", trc.Len())
	}
	ev := trc.Events()
	if ev[0].Cat != CatHash || ev[0].Dur != 15 || ev[0].Addr != 0x2a {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Label != "addrmap" {
		t.Fatalf("event 1 label = %q", ev[1].Label)
	}
	sm := trc.Samples()
	if len(sm) != 1 || sm[0].Name != "core.dup_ratio" || sm[0].Value != 0.5 {
		t.Fatalf("samples = %+v", sm)
	}
	byCat := trc.CountByCategory()
	if byCat[CatHash] != 1 || byCat[CatMetadata] != 1 {
		t.Fatalf("CountByCategory = %v", byCat)
	}
}

func TestEventCapDrops(t *testing.T) {
	trc := New(2)
	for i := 0; i < 5; i++ {
		trc.Span(CatAES, TrackAES, "", 0, 1, uint64(i))
	}
	if trc.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (capped)", trc.Len())
	}
	if trc.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", trc.Dropped())
	}
}

func TestSampleCapDrops(t *testing.T) {
	trc := New(2)
	for i := 0; i < 5; i++ {
		trc.Sample("core.dup_ratio", units.Time(i), float64(i))
	}
	if n := len(trc.Samples()); n != 2 {
		t.Fatalf("len(Samples) = %d, want 2 (capped)", n)
	}
	if trc.DroppedSamples() != 3 {
		t.Fatalf("DroppedSamples = %d, want 3", trc.DroppedSamples())
	}
	if trc.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 (spans and samples count apart)", trc.Dropped())
	}
}

func TestConcurrentEmission(t *testing.T) {
	trc := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				trc.Span(CatBankService, TrackBankBase+int32(g), "", 0, 10, uint64(i))
				trc.Sample("s", units.Time(i), float64(i))
			}
		}(g)
	}
	wg.Wait()
	if trc.Len() != 8*500 {
		t.Fatalf("Len = %d, want %d", trc.Len(), 8*500)
	}
}

func TestCategoryAndTrackNames(t *testing.T) {
	for c := Category(0); c < numCategories; c++ {
		if c.String() == "unknown" {
			t.Fatalf("category %d has no name", c)
		}
	}
	if Category(250).String() != "unknown" {
		t.Fatal("out-of-range category should be unknown")
	}
	for id, want := range map[int32]string{
		TrackPredict:      "predict",
		TrackAES:          "aes",
		TrackBankBase + 3: "bank 3",
		TrackRequestBase:  "thread 0 requests",
	} {
		if got := TrackName(id); got != want {
			t.Errorf("TrackName(%d) = %q, want %q", id, got, want)
		}
	}
}

// chromeTrace mirrors the trace-event JSON object format for validation.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		Ts   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	trc := New(0)
	trc.Span(CatHash, TrackHash, "", 1_000_000, 16_000_000, 0x10) // 1 us + 15 us
	trc.Span(CatBankService, TrackBankBase+1, "", 16_000_000, 316_000_000, 0x10)
	trc.Sample("nvm.banks_busy", 316_000_000, 3)
	var buf strings.Builder
	if err := trc.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed chromeTrace
	if err := json.Unmarshal([]byte(buf.String()), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var sawHash, sawBank, sawCounter bool
	for _, e := range parsed.TraceEvents {
		switch {
		case e.Ph == "X" && e.Cat == "hash":
			sawHash = true
			if e.Ts != 1 || e.Dur != 15 { // picoseconds rendered as microseconds
				t.Fatalf("hash span ts/dur = %v/%v, want 1/15", e.Ts, e.Dur)
			}
		case e.Ph == "X" && e.Cat == "bank-service":
			sawBank = true
		case e.Ph == "C":
			sawCounter = true
		}
	}
	if !sawHash || !sawBank || !sawCounter {
		t.Fatalf("missing events: hash=%v bank=%v counter=%v", sawHash, sawBank, sawCounter)
	}
}

func TestUsecRendering(t *testing.T) {
	for ps, want := range map[uint64]string{
		0:         "0",
		1:         "0.000001",
		1_000_000: "1",
		1_500_000: "1.5",
		2_000_001: "2.000001",
	} {
		if got := usec(ps); got != want {
			t.Errorf("usec(%d) = %q, want %q", ps, got, want)
		}
	}
}

func TestWriteMetricsCSV(t *testing.T) {
	trc := New(0)
	trc.Sample("a.b", 10, 0.25)
	trc.Sample("c", 20, 3)
	var buf strings.Builder
	if err := trc.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "series,time_ps,value\na.b,10,0.25\nc,20,3\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
	var nilTrc *Tracer
	if err := nilTrc.WriteMetricsCSV(&buf); err == nil {
		t.Fatal("nil tracer export should error")
	}
	if err := nilTrc.WriteChromeTrace(&buf); err == nil {
		t.Fatal("nil tracer export should error")
	}
}

func TestServeDebug(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	for _, path := range []string{"/debug/metrics", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
