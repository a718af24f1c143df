package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dewrite/internal/attr"
	"dewrite/internal/cache"
	"dewrite/internal/config"
	"dewrite/internal/fault"
	"dewrite/internal/telemetry"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// goldenDigests pins the SHA-256 of every output the request loop feeds:
// run reports over each front end (generator, hierarchy, crash point, trace
// replay, sharded engine) and the tracer's Chrome trace and metrics CSV.
// A change to any of them means the simulator's behaviour changed; refactors
// of the loop must leave every value as it is.
var goldenDigests = map[string]string{
	"hierarchy/DeWrite/report":          "3e883f9d6da3fca1a97a782e45a14a1d2eb93c388e1cc7962a60fd5e8453b2bb",
	"hierarchy/SecureNVM/report":        "03982151b8f99fa3d434a0e10227ce1df6616e0941bdfe2448d0cd4421b8aef4",
	"crash-faults-attr-timeline/report": "7f9cb73fab67497dc3ab727d4efa501d902174a3a5f1ecac7e27037f3f5ee262",
	"tracer/report":                     "cef87a793f967e0c09627d59c98b0ff754a714036f2fa1a619dda1b7c675e636",
	"tracer/chrome":                     "70f7282ba8c66dfa030aa1079fbd9f19758e8d1fa403a20f07aedbeab77fa263",
	"tracer/metrics":                    "28b91107546f2b41c0a081cff9d62bf71879b9ccf99de1116cf282e7f3108e99",
	"hierarchy-tracer-crash/report":     "92de747f1d1b28f8744a13d1c30165f643323e78764672f10b61beea4b16f961",
	"hierarchy-tracer-crash/chrome":     "7530356b725c95e39e337f5786261e972b2773cc7328422936d2d72953cd022d",
	"hierarchy-tracer-crash/metrics":    "5ba775b4529c6fcb328faa65cf89b983dfc605253f6a8ce8cc28fc7ac9853f71",
	"runtrace/DeWrite/report":           "9f1e7cba63fabaa514da76fc4f3ca9733be08f80eb3199a6eb70e97cb770d3da",
	"runtrace/SecureNVM/report":         "cf377fb26d42158f69d15e4b2611bc2fc6e743b6fcdd653ace16caaa4cd89b1f",
	"sharded/DeWrite/report":            "79270f15e1a1c085a3d7f0dbcf4e07f990164ed5268eabf678787a8f0f735898",
	"sharded/SecureNVM/report":          "29df12212bf2cfecdda21c8cca4a97be86b2259208cb4c9819c7d6d9f0b4d523",
}

func goldenProfile(t *testing.T) workload.Profile {
	t.Helper()
	prof, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("no mcf profile")
	}
	return prof
}

// checkGolden compares the digest of out with the recorded one.
func checkGolden(t *testing.T, name string, out []byte) {
	t.Helper()
	want, ok := goldenDigests[name]
	if !ok {
		t.Fatalf("no recorded digest for %s", name)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: digest %s, recorded %s", name, got, want)
	}
}

// checkTracerGolden pins the tracer's Chrome trace and metrics CSV and
// returns the trace.
func checkTracerGolden(t *testing.T, name string, trc *telemetry.Tracer) []byte {
	t.Helper()
	var chrome, metrics bytes.Buffer
	if err := trc.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := trc.WriteMetricsCSV(&metrics); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name+"/chrome", chrome.Bytes())
	checkGolden(t, name+"/metrics", metrics.Bytes())
	return chrome.Bytes()
}

func TestGoldenHierarchyReports(t *testing.T) {
	prof := goldenProfile(t)
	for _, s := range []Scheme{SchemeDeWrite, SchemeSecureNVM} {
		opts := Options{Requests: 3000, Warmup: 300, Seed: 7,
			Hierarchy: cache.NewHierarchy(config.DefaultHierarchy())}
		res, mem := RunScheme(s, prof, config.Default(), opts)
		checkGolden(t, "hierarchy/"+s.String()+"/report", reportBytes(t, NewRunReport(res, mem)))
	}
}

func TestGoldenCrashFaultsAttrTimeline(t *testing.T) {
	prof := goldenProfile(t)
	opts := Options{Requests: 3000, Warmup: 300, Seed: 7,
		CrashAt:  1500,
		Faults:   fault.Config{Endurance: 300, ReadBER: 1e-4, Seed: 3},
		Attr:     attr.NewRecorder(64, 7),
		Timeline: timeline.NewByRequests(500, 0),
	}
	res, mem := RunScheme(SchemeDeWrite, prof, config.Default(), opts)
	if res.Crash == nil {
		t.Fatal("crash point did not fire")
	}
	checkGolden(t, "crash-faults-attr-timeline/report", reportBytes(t, NewRunReport(res, mem)))
}

func TestGoldenTracer(t *testing.T) {
	prof := goldenProfile(t)
	trc := telemetry.New(0)
	opts := Options{Requests: 3000, Warmup: 300, Seed: 7,
		Tracer: trc, Attr: attr.NewRecorder(64, 7)}
	res, mem := RunScheme(SchemeDeWrite, prof, config.Default(), opts)
	checkGolden(t, "tracer/report", reportBytes(t, NewRunReport(res, mem)))
	checkTracerGolden(t, "tracer", trc)
}

// TestGoldenHierarchyTracerCrash covers the cache-filtered path's fills,
// write-back spans and crash swap with every observer attached. The caches
// are small enough that dirty lines are evicted within the run.
func TestGoldenHierarchyTracerCrash(t *testing.T) {
	prof := goldenProfile(t)
	trc := telemetry.New(0)
	cycle := units.NewClock(config.CPUHz).Period()
	opts := Options{Requests: 3000, Warmup: 300, Seed: 7,
		Hierarchy: cache.NewHierarchy([]config.CacheLevel{
			{Name: "L1", SizeBytes: 4 * units.KB, Ways: 4, Latency: 4 * cycle},
			{Name: "L2", SizeBytes: 16 * units.KB, Ways: 8, Latency: 12 * cycle},
		}),
		Tracer:   trc,
		Timeline: timeline.NewByRequests(500, 0),
		Attr:     attr.NewRecorder(64, 7),
		CrashAt:  2000,
	}
	res, mem := RunScheme(SchemeDeWrite, prof, config.Default(), opts)
	if res.Crash == nil || res.MemWrites == 0 {
		t.Fatalf("crash fired: %v, write-backs: %d", res.Crash != nil, res.MemWrites)
	}
	checkGolden(t, "hierarchy-tracer-crash/report", reportBytes(t, NewRunReport(res, mem)))
	if chrome := checkTracerGolden(t, "hierarchy-tracer-crash", trc); !bytes.Contains(chrome, []byte(`"writeback"`)) {
		t.Error("no write-back span in the trace")
	}
}

func TestGoldenRunTrace(t *testing.T) {
	prof := goldenProfile(t)
	tr := workload.Generate(prof, 31, 3000)
	for _, s := range []Scheme{SchemeDeWrite, SchemeSecureNVM} {
		mem := NewMemory(s, prof.WorkingSetLines, config.Default())
		res := RunTrace(tr, mem, 300)
		checkGolden(t, "runtrace/"+s.String()+"/report", reportBytes(t, NewRunReport(res, mem)))
	}
}

func TestGoldenSharded(t *testing.T) {
	prof := goldenProfile(t)
	for _, s := range []Scheme{SchemeDeWrite, SchemeSecureNVM} {
		opts := ShardedOptions{Options: Options{Requests: 3000, Warmup: 300, Seed: 7,
			Timeline: timeline.NewByRequests(500, 0),
			Attr:     attr.NewRecorder(64, 7),
		}, Shards: 4}
		res := RunSharded(s, prof, config.Default(), opts)
		checkGolden(t, "sharded/"+s.String()+"/report", reportBytes(t, NewRunReport(res, nil)))
	}
}
