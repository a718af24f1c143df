package sim

import (
	"fmt"

	"dewrite/internal/attr"
	"dewrite/internal/baseline"
	"dewrite/internal/config"
	"dewrite/internal/cpu"
	"dewrite/internal/fault"
	"dewrite/internal/nvm"
	"dewrite/internal/stats"
	"dewrite/internal/telemetry"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// lane is one request path into a scheme: the CPU model issuing the
// requests, the scheme with its allocation-free read path, the observers
// wired into it, and the measurements. Its write and read steps are the only
// code that issues a request to a scheme, and finish is the only code that
// turns measurements into a Result. Run drives one lane request by request;
// RunSharded drives one lane per shard in epochs.
type lane struct {
	machine *cpu.Machine
	mem     Memory
	ri      readerInto
	readBuf [config.LineSize]byte // read plaintext is discarded by the harness
	rec     *attr.Recorder
	trc     *telemetry.Tracer
	// epochs is the scheme's own timeline sampler. countZeros is set when a
	// timeline is collected: the harness counts zero-payload writes, which
	// the schemes other than Shredder don't track themselves.
	epochs     timeline.Sampler
	countZeros bool

	writeLat, readLat stats.Latency
	lastDone          units.Time
	requests          uint64
	memWrites         uint64
	memReads          uint64
	zeroWrites        uint64

	// Warm-up baseline, captured at the lane's first measured request.
	measured        bool
	instr0, cycles0 uint64
	dev0            nvm.Stats
}

// newLane builds a lane of threads CPU threads over mem. trc and rec may be
// nil; sampled reports whether a timeline collector samples the lane.
func newLane(mem Memory, threads int, trc *telemetry.Tracer, rec *attr.Recorder, sampled bool) *lane {
	l := &lane{machine: cpu.NewMachine(threads), trc: trc, rec: rec, countZeros: sampled}
	l.attach(mem)
	if rec.Enabled() && trc.Enabled() {
		rec.SetTracer(trc)
	}
	return l
}

// attach makes mem the lane's scheme and wires the observers into it.
func (l *lane) attach(mem Memory) {
	l.mem = mem
	l.ri, _ = mem.(readerInto)
	if l.trc.Enabled() {
		AttachTracer(mem, l.trc)
	}
	if l.rec.Enabled() {
		AttachAttr(mem, l.rec)
	}
	if l.countZeros {
		l.epochs, _ = mem.(timeline.Sampler)
	}
}

// begin starts a request on thread th: at the lane's first measured request
// it captures the warm-up baseline, then it runs the thread's gap of
// non-memory instructions.
func (l *lane) begin(th int, gap uint64, measuring bool) {
	if measuring && !l.measured {
		l.measured = true
		l.instr0 = l.machine.Instructions()
		l.cycles0 = l.machine.Cycles()
		if dev := DeviceOf(l.mem); dev != nil {
			l.dev0 = dev.Stats()
		}
	}
	l.machine.Execute(th, gap)
	if measuring {
		l.requests++
	}
}

// write issues an ordered persistent write of data to addr from thread th:
// it stalls on the thread's write window, then issues; the write occupies
// its bank while the thread runs ahead, so later requests to that bank queue
// behind it — the paper's contention mechanism. label names the span
// ("writeback" for cache evictions).
func (l *lane) write(th int, addr uint64, data []byte, label string, measuring bool) {
	issue := l.machine.IssueWrite(th)
	if l.countZeros && baseline.IsZeroLine(data) {
		l.zeroWrites++
	}
	l.rec.Begin(attr.KindWrite, addr, issue)
	done := l.mem.Write(issue, addr, data)
	l.rec.End(done)
	l.machine.RetireWrite(th, done)
	l.trc.Span(telemetry.CatWrite, telemetry.TrackRequestBase+int32(th), label, issue, done, addr)
	l.lastDone = max(l.lastDone, done)
	if measuring {
		l.writeLat.Observe(done.Sub(issue))
		l.memWrites++
	}
}

// read issues a read of addr from thread th. A fill (a cache-hierarchy miss)
// is issued at the thread's current time and stalls it until the data
// returns; a direct load goes through the thread's read window and retires
// asynchronously.
func (l *lane) read(th int, addr uint64, fill, measuring bool) {
	var issue units.Time
	if fill {
		issue = l.machine.Now(th)
	} else {
		issue = l.machine.IssueRead(th)
	}
	l.rec.Begin(attr.KindRead, addr, issue)
	var done units.Time
	if l.ri != nil {
		done = l.ri.ReadInto(issue, addr, l.readBuf[:])
	} else {
		_, done = l.mem.Read(issue, addr)
	}
	l.rec.End(done)
	if fill {
		l.machine.CompleteRead(th, done)
	} else {
		l.machine.RetireRead(th, done)
	}
	l.trc.Span(telemetry.CatRead, telemetry.TrackRequestBase+int32(th), "", issue, done, addr)
	l.lastDone = max(l.lastDone, done)
	if measuring {
		l.readLat.Observe(done.Sub(issue))
		l.memReads++
	}
}

// crash cuts power on the lane's scheme after request at (1-based) without
// flushing its metadata caches and continues on the recovered successor.
// Recovery is instantaneous in simulated time (the scrub runs at boot); the
// CPU state deliberately survives — the crash model covers the memory
// system, not the cores. The same recorder survives the power cycle, so the
// attribution ledger stays cumulative while the recovered device's counters
// restart from the loaded state; the warm-up baseline is re-zeroed, so
// pre-crash device traffic is lost from the measurement, exactly as it is
// lost to the power cut.
func (l *lane) crash(at uint64) *fault.RecoveryReport {
	nm, rep, err := crashRecover(l.mem)
	if err != nil {
		panic(fmt.Sprintf("sim: crash point at %d: %v (build the memory with NewMemoryWith track=true)", at, err))
	}
	rep.CrashedAt = at
	l.attach(nm)
	l.dev0 = nvm.Stats{}
	return rep
}

// SampleEpoch fills e from the scheme's epoch sampler and the harness's
// zero-write count.
func (l *lane) SampleEpoch(e *timeline.Epoch, now units.Time) {
	if l.epochs != nil {
		l.epochs.SampleEpoch(e, now)
	}
	e.ZeroWrites = l.zeroWrites
}

// window returns the lane's measured instructions, cycles and device
// counters: everything since the warm-up baseline, zero if the lane never
// saw a measured request.
func (l *lane) window() (instr, cycles uint64, dev nvm.Stats) {
	if !l.measured {
		return 0, 0, nvm.Stats{}
	}
	if d := DeviceOf(l.mem); d != nil {
		dev = devDelta(d.Stats(), l.dev0)
	}
	return l.machine.Instructions() - l.instr0, l.machine.Cycles() - l.cycles0, dev
}

// finish folds the lanes' measurements into res. Latency histograms merge
// bucket-wise (same geometry, so merged quantiles keep the single-lane error
// bound). Cycles is the maximum lane cycle count — the makespan of a
// partition — and IPC is total instructions over it. Device counters add;
// see mergeDeviceStats for the waits.
func finish(res *Result, lanes []*lane) {
	var writeLat, readLat stats.Latency
	for _, l := range lanes {
		res.Requests += l.requests
		res.MemWrites += l.memWrites
		res.MemReads += l.memReads
		writeLat.Merge(&l.writeLat)
		readLat.Merge(&l.readLat)
		instr, cycles, dev := l.window()
		res.Instructions += instr
		res.Cycles = max(res.Cycles, cycles)
		mergeDeviceStats(&res.Device, dev)
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	res.Elapsed = units.Duration(res.Cycles) * units.NewClock(config.CPUHz).Period()
	res.MeanWriteLat = writeLat.Mean()
	res.MeanReadLat = readLat.Mean()
	res.P50WriteLat = writeLat.P50()
	res.P95WriteLat = writeLat.P95()
	res.P99WriteLat = writeLat.P99()
	res.P50ReadLat = readLat.P50()
	res.P95ReadLat = readLat.P95()
	res.P99ReadLat = readLat.P99()
	res.WriteLatSum = writeLat.Sum()
	res.ReadLatSum = readLat.Sum()
	res.EnergyPJ = res.Device.EnergyPJ
}

// mergeDeviceStats folds one lane's device delta into the merged stats:
// counters add, mean waits merge weighted by operation counts (an empty
// destination takes the lane's waits as they are), and the P99 waits take
// the maximum — a conservative bound, since a true merged P99 cannot exceed
// the worst lane's.
func mergeDeviceStats(dst *nvm.Stats, s nvm.Stats) {
	if dst.Reads == 0 {
		dst.MeanReadWait = s.MeanReadWait
	} else if s.Reads > 0 {
		dst.MeanReadWait = units.Duration(
			(float64(dst.MeanReadWait)*float64(dst.Reads) + float64(s.MeanReadWait)*float64(s.Reads)) /
				float64(dst.Reads+s.Reads))
	}
	if dst.Writes == 0 {
		dst.MeanWriteWait = s.MeanWriteWait
	} else if s.Writes > 0 {
		dst.MeanWriteWait = units.Duration(
			(float64(dst.MeanWriteWait)*float64(dst.Writes) + float64(s.MeanWriteWait)*float64(s.Writes)) /
				float64(dst.Writes+s.Writes))
	}
	dst.P99ReadWait = max(dst.P99ReadWait, s.P99ReadWait)
	dst.P99WriteWait = max(dst.P99WriteWait, s.P99WriteWait)
	dst.Reads += s.Reads
	dst.RowHits += s.RowHits
	dst.Writes += s.Writes
	dst.BitsFlipped += s.BitsFlipped
	dst.BitsWritten += s.BitsWritten
	dst.EnergyPJ += s.EnergyPJ
}

// devDelta subtracts the warmup baseline from the device counters; the mean
// and percentile waits remain whole-run values.
func devDelta(a, b nvm.Stats) nvm.Stats {
	return nvm.Stats{
		Reads:         a.Reads - b.Reads,
		RowHits:       a.RowHits - b.RowHits,
		Writes:        a.Writes - b.Writes,
		BitsFlipped:   a.BitsFlipped - b.BitsFlipped,
		BitsWritten:   a.BitsWritten - b.BitsWritten,
		EnergyPJ:      a.EnergyPJ - b.EnergyPJ,
		MeanReadWait:  a.MeanReadWait,
		MeanWriteWait: a.MeanWriteWait,
		P99ReadWait:   a.P99ReadWait,
		P99WriteWait:  a.P99WriteWait,
	}
}
