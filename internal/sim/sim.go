// Package sim is the harness that wires a workload generator, the CPU
// timing model, an optional CPU cache hierarchy, and one secure-NVM scheme
// into a run, producing the per-application measurements every experiment
// consumes.
package sim

import (
	"fmt"

	"dewrite/internal/attr"
	"dewrite/internal/baseline"
	"dewrite/internal/cache"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/fault"
	"dewrite/internal/nvm"
	"dewrite/internal/stats"
	"dewrite/internal/telemetry"
	"dewrite/internal/timeline"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// Memory is the request interface every secure-NVM scheme implements
// (core.Controller, baseline.SecureNVM, baseline.Shredder).
type Memory interface {
	Write(now units.Time, logical uint64, data []byte) units.Time
	Read(now units.Time, logical uint64) ([]byte, units.Time)
}

// readerInto is implemented by schemes whose read path can decrypt into a
// caller-provided buffer (core.Controller, baseline.SecureNVM,
// baseline.Shredder), keeping the simulation loop allocation-free.
type readerInto interface {
	ReadInto(now units.Time, logical uint64, dst []byte) units.Time
}

// deviceHolder is implemented by schemes that expose their NVM device.
type deviceHolder interface {
	Device() *nvm.Device
}

// DeviceOf returns the scheme's NVM device, or nil if it does not expose one.
func DeviceOf(mem Memory) *nvm.Device {
	if h, ok := mem.(deviceHolder); ok {
		return h.Device()
	}
	if sh, ok := mem.(*baseline.Shredder); ok {
		return sh.Inner().Device()
	}
	return nil
}

// tracerSetter is implemented by schemes that can attach a telemetry sink
// (core.Controller, baseline.SecureNVM, baseline.Shredder).
type tracerSetter interface {
	SetTracer(*telemetry.Tracer)
}

// sampler is implemented by schemes that emit periodic counter samples.
type sampler interface {
	EmitSamples(*telemetry.Tracer, units.Time)
}

// AttachTracer wires the telemetry sink into mem's internal components, if
// mem supports it. It reports whether the scheme accepted the tracer.
func AttachTracer(mem Memory, trc *telemetry.Tracer) bool {
	if ts, ok := mem.(tracerSetter); ok {
		ts.SetTracer(trc)
		return true
	}
	return false
}

// attrSetter is implemented by schemes that can attach an attribution
// recorder (core.Controller, baseline.SecureNVM, baseline.Shredder).
type attrSetter interface {
	SetAttr(*attr.Recorder)
}

// AttachAttr wires the attribution recorder into mem's internal components,
// if mem supports it. It reports whether the scheme accepted the recorder.
func AttachAttr(mem Memory, rec *attr.Recorder) bool {
	if as, ok := mem.(attrSetter); ok {
		as.SetAttr(rec)
		return true
	}
	return false
}

// emitSamples records one round of counter series from the scheme at now.
func emitSamples(mem Memory, trc *telemetry.Tracer, now units.Time, requests uint64) {
	if !trc.Enabled() {
		return
	}
	trc.Sample("sim.requests", now, float64(requests))
	if s, ok := mem.(sampler); ok {
		s.EmitSamples(trc, now)
	}
	if dev := DeviceOf(mem); dev != nil {
		dev.EmitSamples(trc, now)
	}
}

// Scheme identifies a memory scheme for construction and reporting.
type Scheme int

// The schemes the experiments compare.
const (
	SchemeDeWrite Scheme = iota
	SchemeDirect
	SchemeParallel
	SchemeSecureNVM
	SchemeShredder
)

// String returns the scheme's display name.
func (s Scheme) String() string {
	switch s {
	case SchemeDeWrite:
		return "DeWrite"
	case SchemeDirect:
		return "Direct"
	case SchemeParallel:
		return "Parallel"
	case SchemeSecureNVM:
		return "SecureNVM"
	case SchemeShredder:
		return "Shredder"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// NewMemory constructs a fresh memory of the given scheme over dataLines.
func NewMemory(s Scheme, dataLines uint64, cfg config.Config) Memory {
	return NewMemoryWith(s, dataLines, cfg, fault.Config{}, false)
}

// NewMemoryWith is NewMemory with the fault layer armed (when faults is
// enabled) and, with track set, crash-consistency tracking so the memory
// supports Crash() mid-run.
func NewMemoryWith(s Scheme, dataLines uint64, cfg config.Config, faults fault.Config, track bool) Memory {
	mode, ok := map[Scheme]core.Mode{
		SchemeDeWrite:  core.ModeDeWrite,
		SchemeDirect:   core.ModeDirect,
		SchemeParallel: core.ModeParallel,
	}[s]
	if ok {
		return core.New(core.Options{
			DataLines: dataLines, Config: cfg, Mode: mode,
			Faults: faults, TrackPersist: track,
		})
	}
	switch s {
	case SchemeSecureNVM:
		m := baseline.NewSecureNVM(dataLines, cfg)
		if faults.Enabled() {
			m.EnableFaults(faults)
		}
		if track {
			m.EnableCrashTracking()
		}
		return m
	case SchemeShredder:
		m := baseline.NewShredder(dataLines, cfg)
		if faults.Enabled() {
			m.EnableFaults(faults)
		}
		if track {
			m.EnableCrashTracking()
		}
		return m
	default:
		panic(fmt.Sprintf("sim: unknown scheme %d", s))
	}
}

// crashRecover cuts the power on mem without flushing its metadata caches
// and returns the recovered memory plus the scrub's report. Schemes that
// cannot crash (opaque memories) return an error.
func crashRecover(mem Memory) (Memory, *fault.RecoveryReport, error) {
	switch m := mem.(type) {
	case *core.Controller:
		nc, rep, err := m.Crash()
		return nc, rep, err
	case *baseline.SecureNVM:
		ns, rep, err := m.Crash()
		return ns, rep, err
	case *baseline.Shredder:
		ns, rep, err := m.Crash()
		return ns, rep, err
	default:
		return nil, nil, fmt.Errorf("sim: scheme %T does not support crash points", mem)
	}
}

// Options configures a run.
type Options struct {
	// Requests is the number of memory requests to drive. Required.
	Requests int
	// Warmup is the number of leading requests excluded from every
	// measurement (the paper warms caches for 10 M instructions before
	// measuring). Must be below Requests.
	Warmup int
	// Seed seeds the workload generator.
	Seed uint64
	// Hierarchy optionally interposes a CPU cache hierarchy so that only
	// misses and write-backs reach the memory scheme.
	Hierarchy *cache.Hierarchy
	// Tracer, when non-nil, receives request spans, component spans and
	// counter samples every Requests/256 requests (at least 1). Tracing only
	// observes the simulated clock — a run's Result is identical with and
	// without it.
	Tracer *telemetry.Tracer
	// Timeline, when non-nil, collects the epoch time series: the collector
	// is ticked once per request and the closed epochs land in
	// Result.Timeline. Like the Tracer it is purely observational — a run's
	// other measurements are identical with and without it. Collectors are
	// per-run; do not share one across runs.
	Timeline *timeline.Collector
	// Prepared, when non-nil, replays a pre-generated request stream instead
	// of running a generator: the run consumes Prepared.Requests verbatim and
	// takes its generator ground truth from the prepared snapshots. It must
	// have been built by Prepare with the same Requests, Warmup and profile
	// (RunTrace wraps a trace instead, with zero ground truth); Seed is
	// ignored. Several runs (one per scheme) may share one Prepared
	// concurrently — the stream is immutable.
	Prepared *Prepared
	// Attr, when non-nil, is the attribution recorder: the run opens a
	// request context around every memory request reaching the scheme
	// (deterministic every-Nth sampling decides which contexts record
	// phases) and the scheme's device records every physical line write's
	// cause into the recorder's ledger. Purely observational, like Tracer
	// and Timeline; recorders are per-run. The closed recorder's report
	// lands in Result.Attribution.
	Attr *attr.Recorder
	// CrashAt, when non-zero, cuts power after that many requests (1-based,
	// must be ≤ Requests) without flushing metadata caches, recovers, and
	// finishes the run on the recovered memory. The memory must have been
	// built with crash tracking (see NewMemoryWith). Post-crash device
	// counters restart from the recovered state; Result.Crash carries the
	// recovery report.
	CrashAt uint64
	// Faults arms deterministic device-fault injection on memories built by
	// RunScheme; ignored when the caller constructs the memory itself.
	Faults fault.Config
}

// Prepared is one application's request stream materialized once so every
// scheme can replay the identical sequence without regenerating (and
// re-allocating) it. The stream and its payloads are immutable after Prepare
// returns and safe for concurrent replay.
type Prepared struct {
	App      string
	Requests []trace.Request
	Warmup   int
	GenWarm  workload.Stats // generator counters at the warmup boundary
	GenFinal workload.Stats // generator counters after the full stream
}

// Prepare materializes opts.Requests generator requests for the profile,
// snapshotting the ground-truth counters exactly where Run would read them
// (at the warmup boundary and at the end), so a replayed run's Result is
// byte-identical to a generator-driven one.
func Prepare(prof workload.Profile, opts Options) *Prepared {
	if opts.Requests <= 0 {
		panic("sim: non-positive request count")
	}
	if opts.Warmup < 0 || opts.Warmup >= opts.Requests {
		panic("sim: warmup must be in [0, Requests)")
	}
	gen := workload.NewGenerator(prof, opts.Seed)
	p := &Prepared{
		App:      prof.Name,
		Warmup:   opts.Warmup,
		Requests: make([]trace.Request, opts.Requests),
	}
	for i := range p.Requests {
		if i == opts.Warmup {
			p.GenWarm = gen.Stats()
		}
		p.Requests[i] = gen.Next()
	}
	p.GenFinal = gen.Stats()
	return p
}

// Result is the measurement of one (application, scheme) run.
type Result struct {
	App    string
	Scheme string

	Requests  uint64
	MemWrites uint64 // write requests reaching the memory scheme
	MemReads  uint64

	Gen workload.Stats // generator ground truth

	Instructions uint64
	Cycles       uint64
	IPC          float64
	Elapsed      units.Duration

	MeanWriteLat units.Duration
	MeanReadLat  units.Duration
	P50WriteLat  units.Duration
	P95WriteLat  units.Duration
	P99WriteLat  units.Duration
	P50ReadLat   units.Duration
	P95ReadLat   units.Duration
	P99ReadLat   units.Duration
	WriteLatSum  units.Duration
	ReadLatSum   units.Duration

	EnergyPJ float64
	Device   nvm.Stats

	// Timeline is the epoch time series, nil unless Options.Timeline was set.
	Timeline *timeline.Report

	// Attribution is the per-request causal-tracing and write-provenance
	// block, nil unless Options.Attr was set.
	Attribution *attr.Report

	// Crash is the recovery scrub's report, nil unless Options.CrashAt fired.
	Crash *fault.RecoveryReport

	// Sharding describes the shard partition, nil unless the run executed
	// through RunSharded with more than one shard.
	Sharding *ShardingReport

	// finalMem is the memory that finished the run — the crash-recovered
	// successor when CrashAt fired, the original otherwise.
	finalMem Memory
}

// FinalMemory returns the memory that finished the run: after a crash point
// the recovered controller, otherwise the one passed to Run. Reports must be
// built from this, not from the memory handed to Run.
func (r Result) FinalMemory() Memory { return r.finalMem }

// Run drives opts.Requests requests — from a generator over prof, or the
// prepared stream — through mem on one lane and returns the measurements.
func Run(app string, schemeName string, mem Memory, prof workload.Profile, opts Options) Result {
	if opts.Requests <= 0 {
		panic("sim: non-positive request count")
	}
	if opts.Warmup < 0 || opts.Warmup >= opts.Requests {
		panic("sim: warmup must be in [0, Requests)")
	}
	if opts.CrashAt > uint64(opts.Requests) {
		panic("sim: CrashAt beyond Requests")
	}
	prep := opts.Prepared
	var gen *workload.Generator
	if prep != nil {
		if len(prep.Requests) != opts.Requests {
			panic("sim: prepared stream length does not match Requests")
		}
		if prep.Warmup != opts.Warmup {
			panic("sim: prepared warmup does not match Warmup")
		}
	} else {
		gen = workload.NewGenerator(prof, opts.Seed)
		// Without a hierarchy no payload outlives its request, so the
		// generator can recycle displaced line buffers.
		gen.SetRecycle(opts.Hierarchy == nil)
	}
	trc, tl, h := opts.Tracer, opts.Timeline, opts.Hierarchy
	l := newLane(mem, prof.Threads, trc, opts.Attr, tl.Enabled())
	samplePeriod := uint64(max(opts.Requests/256, 1))
	shadow := map[uint64][]byte{} // line contents for hierarchy write-backs

	res := Result{App: app, Scheme: schemeName}
	var gen0 workload.Stats // generator counters at the warmup boundary
	for i := 0; i < opts.Requests; i++ {
		var req trace.Request
		if prep != nil {
			req = prep.Requests[i]
		} else {
			if i == opts.Warmup {
				gen0 = gen.Stats()
			}
			req = gen.Next()
		}
		th, measuring := req.Thread, i >= opts.Warmup
		l.begin(th, req.Gap, measuring)
		switch {
		case h == nil && req.Op == trace.Write:
			l.write(th, req.Addr, req.Data, "", measuring)
		case h == nil:
			l.read(th, req.Addr, false, measuring)
		default:
			// Cache-filtered path: only misses and dirty write-backs reach
			// the scheme.
			store := req.Op == trace.Write
			if store {
				shadow[req.Addr] = req.Data
			}
			acc := h.Access(req.Addr, store)
			l.machine.Delay(th, acc.Latency)
			if acc.MemFill {
				l.read(th, req.Addr, true, measuring)
			}
			for _, wb := range acc.Writebacks {
				data := shadow[wb]
				if data == nil {
					data = zeroLine[:]
				}
				l.write(th, wb, data, "writeback", measuring)
			}
		}
		n := uint64(i + 1)
		if trc.Enabled() && n%samplePeriod == 0 {
			emitSamples(l.mem, trc, l.lastDone, n)
		}
		tl.Tick(l.lastDone, n, l)
		if n == opts.CrashAt {
			res.Crash = l.crash(n)
		}
	}

	tl.Finish(l.lastDone, uint64(opts.Requests), l)
	res.Timeline = tl.Report()
	res.Attribution = opts.Attr.Report()
	if prep != nil {
		res.Gen = genDelta(prep.GenFinal, prep.GenWarm)
	} else {
		res.Gen = genDelta(gen.Stats(), gen0)
	}
	finish(&res, []*lane{l})
	res.finalMem = l.mem
	return res
}

// zeroLine is the all-zero payload used for clean-miss write-backs; schemes
// never mutate request payloads, so one shared line suffices.
var zeroLine [config.LineSize]byte

// genDelta subtracts the warmup baseline from the generator counters.
func genDelta(a, b workload.Stats) workload.Stats {
	return workload.Stats{
		Writes:     a.Writes - b.Writes,
		Reads:      a.Reads - b.Reads,
		Duplicates: a.Duplicates - b.Duplicates,
		ZeroWrites: a.ZeroWrites - b.ZeroWrites,
	}
}

// RunScheme is the common construct-and-run helper: it builds a fresh memory
// of the scheme sized to the profile's working set and drives it.
func RunScheme(s Scheme, prof workload.Profile, cfg config.Config, opts Options) (Result, Memory) {
	mem := NewMemoryWith(s, prof.WorkingSetLines, cfg, opts.Faults, opts.CrashAt != 0)
	res := Run(prof.Name, s.String(), mem, prof, opts)
	return res, res.FinalMemory()
}

// WriteSpeedup returns base's total write latency over r's (Figure 14).
func WriteSpeedup(r, base Result) float64 {
	return stats.Speedup(base.WriteLatSum, r.WriteLatSum)
}

// ReadSpeedup returns base's total read latency over r's (Figure 16).
func ReadSpeedup(r, base Result) float64 {
	return stats.Speedup(base.ReadLatSum, r.ReadLatSum)
}

// RelativeIPC returns r's IPC over base's (Figure 17).
func RelativeIPC(r, base Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return r.IPC / base.IPC
}

// RelativeEnergy returns r's energy over base's (Figure 19).
func RelativeEnergy(r, base Result) float64 {
	if base.EnergyPJ == 0 {
		return 0
	}
	return r.EnergyPJ / base.EnergyPJ
}

// RunTrace replays a materialized trace through mem with the same CPU model
// Run uses, returning the measurements. The trace's Gap/Thread fields drive
// the timing; thread indices must be dense starting at zero.
func RunTrace(tr *trace.Trace, mem Memory, warmup int) Result {
	prof := workload.Profile{Name: tr.Name, Threads: tr.Summarize().Threads}
	return Run(tr.Name, "trace", mem, prof, Options{
		Requests: len(tr.Requests),
		Warmup:   warmup,
		Prepared: &Prepared{App: tr.Name, Requests: tr.Requests, Warmup: warmup},
	})
}
