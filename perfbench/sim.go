package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/nvm"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// simSpec is one batch-simulator workload: a profile driven through a fresh
// DeWrite memory for a fixed number of requests per repetition. The length
// is fixed so the simulated metrics and the report digest depend on the seed
// alone; a run repeats it until the measured time is spent.
//
// Host time per request is lower over the first few hundred thousand
// requests of a run than in its steady state, so a repetition is long and
// its host time is taken only after settle requests, in windows of window
// requests each.
type simSpec struct {
	name     string
	profile  func() workload.Profile
	requests int
	warmup   int
	settle   int
	window   int
}

var (
	simDup = simSpec{
		name:     "sim-dup",
		profile:  func() workload.Profile { p, _ := workload.ByName("lbm"); return p },
		requests: 1_500_000,
		warmup:   150_000,
		settle:   300_000,
		window:   100_000,
	}
	simUnique = simSpec{
		name:     "sim-unique",
		profile:  workload.WorstCase,
		requests: 800_000,
		warmup:   80_000,
		settle:   300_000,
		window:   50_000,
	}
)

// simConfig is the machine dewrite-sim simulates.
func simConfig() config.Config {
	cfg := config.Default()
	cfg.NVM.Ranks = 2
	cfg.NVM.BanksPerRank = 4
	return cfg
}

// clockedMemory forwards every call to the controller and notes the wall
// and CPU time after every window-th call, so one long repetition yields
// many host-time windows; a counter increment per call is all it adds. It
// forwards ReadInto and Device, through which sim.Run finds the
// allocation-free read path and the device counters, so the run is the same
// as over the bare controller.
type clockedMemory struct {
	ctrl   *core.Controller
	window int
	calls  int
	wall   []time.Time
	cpu    []time.Duration
}

func (m *clockedMemory) tick() {
	m.calls++
	if m.calls%m.window == 0 {
		m.wall = append(m.wall, time.Now())
		m.cpu = append(m.cpu, cpuTime())
	}
}

func (m *clockedMemory) Write(now units.Time, logical uint64, data []byte) units.Time {
	done := m.ctrl.Write(now, logical, data)
	m.tick()
	return done
}

func (m *clockedMemory) Read(now units.Time, logical uint64) ([]byte, units.Time) {
	data, done := m.ctrl.Read(now, logical)
	m.tick()
	return data, done
}

func (m *clockedMemory) ReadInto(now units.Time, logical uint64, dst []byte) units.Time {
	done := m.ctrl.ReadInto(now, logical, dst)
	m.tick()
	return done
}

func (m *clockedMemory) Device() *nvm.Device { return m.ctrl.Device() }

// steady returns the windows that start at or after the settle-th call.
func (m *clockedMemory) steady(settle int) windows {
	var w windows
	for j := max(settle/m.window, 1); j < len(m.wall); j++ {
		w.add(int64(m.window), m.wall[j].Sub(m.wall[j-1]), m.cpu[j]-m.cpu[j-1])
	}
	return w
}

// timedMemory wraps the clocked memory for the traced pass. It times every
// call, and splits write time into duplicate and unique writes by reading
// the dedup counter, an O(1) load, around each write. lat holds the write
// latencies alone: reads and writes take different times and the profiles
// send about as many of each, so the median of all calls would sit on the
// boundary between the two.
type timedMemory struct {
	mem *clockedMemory
	lat stats.Latency

	inCalls                 time.Duration
	dupNs, uniqueNs, readNs time.Duration
	dups, uniques, reads    int64
}

func (m *timedMemory) Write(now units.Time, logical uint64, data []byte) units.Time {
	tables := m.mem.ctrl.Tables()
	before := tables.Snapshot().Duplicates
	t0 := time.Now()
	done := m.mem.Write(now, logical, data)
	d := time.Since(t0)
	observe(&m.lat, d)
	m.inCalls += d
	if tables.Snapshot().Duplicates != before {
		m.dupNs += d
		m.dups++
	} else {
		m.uniqueNs += d
		m.uniques++
	}
	return done
}

func (m *timedMemory) Read(now units.Time, logical uint64) ([]byte, units.Time) {
	t0 := time.Now()
	data, done := m.mem.Read(now, logical)
	m.noteRead(time.Since(t0))
	return data, done
}

func (m *timedMemory) ReadInto(now units.Time, logical uint64, dst []byte) units.Time {
	t0 := time.Now()
	done := m.mem.ReadInto(now, logical, dst)
	m.noteRead(time.Since(t0))
	return done
}

func (m *timedMemory) noteRead(d time.Duration) {
	m.inCalls += d
	m.readNs += d
	m.reads++
}

func (m *timedMemory) Device() *nvm.Device { return m.mem.Device() }

// cacheStat is one metadata-cache partition's counters after a run.
type cacheStat struct {
	name    string
	hitRate float64
	lookups uint64
}

// simRep is one repetition. Its counters are read right after the run,
// before verify reads every line back through the same controller.
type simRep struct {
	builds     []float64 // CPU seconds each memory build took
	elapsed    time.Duration
	win        windows // host time after the settle requests
	mem0, mem1 memSnap
	res        sim.Result
	report     core.Report
	caches     []cacheStat
	ctrl       *core.Controller
	timed      *timedMemory // nil for a measured repetition
	digest     string
}

func (s simSpec) options(seed uint64) sim.Options {
	return sim.Options{Requests: s.requests, Warmup: s.warmup, Seed: seed}
}

// setupBuilds is how many memories each repetition builds to time the
// set-up; the last one is run. A build takes well under a millisecond
// and its time varies within a run, so the median needs many.
const setupBuilds = 16

// rep builds a memory (the set-up), runs the workload through it, through
// a timedMemory when timed is set, and digests the run report.
func (s simSpec) rep(seed uint64, timed bool) (simRep, error) {
	prof := s.profile()
	r := simRep{builds: make([]float64, setupBuilds)}
	var mem sim.Memory
	for i := range r.builds {
		mem = nil
		runtime.GC()
		c0 := cpuTime()
		mem = sim.NewMemory(sim.SchemeDeWrite, prof.WorkingSetLines, simConfig())
		r.builds[i] = (cpuTime() - c0).Seconds()
	}
	ctrl, ok := mem.(*core.Controller)
	if !ok {
		return r, fmt.Errorf("sim.NewMemory(SchemeDeWrite) returned %T", mem)
	}
	r.ctrl = ctrl
	clk := &clockedMemory{ctrl: ctrl, window: s.window}
	mem = clk
	if timed {
		r.timed = &timedMemory{mem: clk}
		mem = r.timed
	}
	r.mem0 = readMem()
	start := time.Now()
	r.res = sim.Run(prof.Name, sim.SchemeDeWrite.String(), mem, prof, s.options(seed))
	r.elapsed = time.Since(start)
	r.mem1 = readMem()
	r.win = clk.steady(s.settle)
	r.report = ctrl.Report()
	for _, mc := range ctrl.MetaCaches() {
		st := mc.Stats()
		r.caches = append(r.caches, cacheStat{name: mc.Name(), hitRate: mc.HitRate(), lookups: st.Hits + st.Misses})
	}
	var buf bytes.Buffer
	if err := sim.NewRunReport(r.res, ctrl).WriteJSON(&buf); err != nil {
		return r, fmt.Errorf("run report: %w", err)
	}
	r.digest = digest(buf.Bytes())
	return r, nil
}

// expected replays the workload's stream and returns the last plaintext
// written to each line.
func (s simSpec) expected(seed uint64) map[uint64]*[config.LineSize]byte {
	gen := workload.NewGenerator(s.profile(), seed)
	gen.SetRecycle(true)
	last := make(map[uint64]*[config.LineSize]byte)
	for i := 0; i < s.requests; i++ {
		req := gen.Next()
		if req.Op != trace.Write {
			continue
		}
		line := last[req.Addr]
		if line == nil {
			line = new([config.LineSize]byte)
			last[req.Addr] = line
		}
		copy(line[:], req.Data)
	}
	return last
}

// verify reads back every written line and checks the dedup tables.
func verify(ctrl *core.Controller, want map[uint64]*[config.LineSize]byte, o *outcome) {
	now := units.Time(1) << 50 // after any simulated time the run reached
	var got [config.LineSize]byte
	for addr, line := range want {
		if _, err := ctrl.ReadVerified(now, addr, got[:]); err != nil {
			o.fail(1, "line %d: %v", addr, err)
		} else if got != *line {
			o.fail(1, "line %d: read back differs from the last plaintext written", addr)
		}
	}
	if err := ctrl.Tables().CheckInvariants(); err != nil {
		o.fail(1, "dedup invariants: %v", err)
	}
}

// checkDigest compares a run-report digest with the one recorded for the
// default seed.
func checkDigest(name string, seed uint64, got string, o *outcome) {
	fmt.Printf("digest %s seed=%d %s\n", name, seed, got)
	if seed != defaultSeed {
		return
	}
	if want := recordedDigest(name); want != got {
		o.fail(1, "%s digest at seed %d is %s, recorded %s", name, seed, got, want)
	}
}

func runSim(s simSpec, c runConfig) (*outcome, error) {
	if c.Trace {
		return s.traced(c)
	}
	o := newOutcome()
	var (
		w           windows
		builds      []float64
		elapsed     time.Duration
		mallocs     uint64
		last        simRep
		want        map[uint64]*[config.LineSize]byte
		firstDigest string
	)
	for reps := 0; elapsed < time.Duration(c.Seconds*float64(time.Second)); reps++ {
		r, err := s.rep(c.Seed, false)
		if err != nil {
			return nil, err
		}
		builds = append(builds, r.builds...)
		w.merge(&r.win)
		elapsed += r.elapsed
		mallocs += r.mem1.mallocs - r.mem0.mallocs
		o.Attempted += int64(s.requests)
		if firstDigest == "" {
			firstDigest = r.digest
			checkDigest(s.name, c.Seed, r.digest, o)
			want = s.expected(c.Seed)
		} else if r.digest != firstDigest {
			o.fail(1, "repetition %d digest %s differs from the first, %s", reps, r.digest, firstDigest)
		}
		verify(r.ctrl, want, o)
		last = r
	}
	w.report(o)
	res := last.res
	o.Metrics["setup_s"] = median(builds)
	o.Samples["setup_s"] = int64(len(builds))
	o.Metrics["allocs_per_req"] = float64(mallocs) / float64(o.Attempted)
	o.Metrics["nvm_writes_per_write"] = ratio(float64(res.Device.Writes), float64(res.MemWrites))
	o.Metrics["energy_pj_per_req"] = ratio(res.EnergyPJ, float64(res.Requests))
	return o, nil
}

// traced alternates measured repetitions with timed ones (every controller
// call timed and classified) until the seconds are spent, requires
// identical simulated reports, and derives the per-layer metrics from the
// timed runs, the controller's counters and microcosts replayed on the
// workload's own lines.
func (s simSpec) traced(c runConfig) (*outcome, error) {
	o := newOutcome()
	var (
		plain, tr          simRep
		plainWin, timedWin windows
		lat                windows
		elapsed            time.Duration
		want               map[uint64]*[config.LineSize]byte
	)
	// Measured and timed repetitions alternate, in alternating order, so
	// host noise falls on both sides of trace.overhead_frac alike.
	for i := 0; i == 0 || elapsed < time.Duration(c.Seconds*float64(time.Second)); i++ {
		for _, timed := range []bool{i%2 == 1, i%2 == 0} {
			r, err := s.rep(c.Seed, timed)
			if err != nil {
				return nil, err
			}
			elapsed += r.elapsed
			if plain.digest == "" { // the first repetition is a measured one
				o.Metrics["runtime.live_heap_mb"] = liveHeapMB()
				runtime.KeepAlive(r.ctrl)
				checkDigest(s.name, c.Seed, r.digest, o)
				want = s.expected(c.Seed)
				plain = r
			}
			if r.digest != plain.digest {
				o.fail(1, "timed=%v run report digest %s differs from the measured run's %s", timed, r.digest, plain.digest)
			}
			verify(r.ctrl, want, o)
			o.Attempted += int64(s.requests)
			if timed {
				tr = r
				timedWin.merge(&r.win)
				lat.addLatency(&r.timed.lat)
			} else {
				plainWin.merge(&r.win)
			}
		}
	}

	n := float64(s.requests)
	m := tr.timed
	rep := tr.report
	res := tr.res
	writes := float64(rep.Writes)

	set := func(name string, v float64) { o.Metrics[name] = v }
	set("sim.self_ns_per_req", float64(tr.elapsed-m.inCalls)/n)
	set("sim.ipc", res.IPC)
	set("sim.write_ns", float64(res.MeanWriteLat)/float64(units.Nanosecond))
	set("sim.read_ns", float64(res.MeanReadLat)/float64(units.Nanosecond))
	set("core.write_ns", ratio(float64(m.dupNs+m.uniqueNs), float64(m.dups+m.uniques)))
	set("core.write_dup_ns", ratio(float64(m.dupNs), float64(m.dups)))
	set("core.write_unique_ns", ratio(float64(m.uniqueNs), float64(m.uniques)))
	set("core.read_ns", ratio(float64(m.readNs), float64(m.reads)))
	set("core.dup_frac", ratio(float64(rep.DupEliminated), writes))
	set("core.aes_lines_per_write", ratio(float64(rep.AESLineOps), writes))
	set("core.aes_wasted_frac", ratio(float64(rep.AESWasted), float64(rep.AESLineOps)))
	set("core.compares_per_write", ratio(float64(rep.CompareOps), writes))
	set("core.meta_reads_per_req", float64(rep.MetaNVMReads)/n)
	set("core.meta_writes_per_req", float64(rep.MetaNVMWrites)/n)
	set("predict.accuracy", rep.PredAccuracy)
	var lookups float64
	for _, mc := range tr.caches {
		set("metacache."+mc.name+".hit_rate", mc.hitRate)
		lookups += float64(mc.lookups)
	}
	set("dedup.collisions_per_kwrite", ratio(1000*float64(rep.Dedup.Collisions), writes))
	set("dedup.saturated_per_kwrite", ratio(1000*float64(rep.Dedup.Saturated), writes))
	dev := rep.Device
	set("nvm.writes_per_req", float64(dev.Writes)/n)
	set("nvm.reads_per_req", float64(dev.Reads)/n)
	set("nvm.row_hit_rate", ratio(float64(dev.RowHits), float64(dev.Reads)))
	set("nvm.write_wait_ns", float64(dev.MeanWriteWait)/float64(units.Nanosecond))
	set("nvm.bits_flipped_per_write", ratio(float64(dev.BitsFlipped), float64(dev.Writes)))
	set("runtime.gc_per_mreq", float64(plain.mem1.numGC-plain.mem0.numGC)*1e6/n)
	set("runtime.bytes_per_req", float64(plain.mem1.totalAlloc-plain.mem0.totalAlloc)/n)
	plainCPU := median(plainWin.cpu) * 1000 // ns per request
	set("req_per_s", median(plainWin.rate))
	set("trace.overhead_frac", median(timedWin.cpu)*1000/plainCPU-1)
	lat.reportLatency(o)

	mc := replayMicrocosts(s.profile(), c.Seed, tr.ctrl)
	for k, v := range mc.metrics() {
		set(k, v)
	}
	// The ledger: each microcost times its per-request op count. Write
	// encryptions and read decrypts count in AESLineOps; a candidate
	// compare decrypts a line without counting there, so compares are
	// added. Metadata lines are direct-encrypted block by block.
	attributed := mc.next +
		mc.crc*float64(rep.CRCOps)/n +
		mc.lookup*lookups/n +
		mc.candidates*float64(rep.CRCOps)/n +
		mc.encryptLine*float64(rep.AESLineOps+rep.CompareOps)/n +
		mc.aesBlock*config.AESBlocksPerLine*float64(rep.AESMetaOps)/n +
		mc.nvmWrite*float64(dev.Writes)/n +
		mc.nvmRead*float64(dev.Reads)/n
	set("ledger.attributed_ns_per_req", attributed)
	set("ledger.unattributed_ns_per_req", plainCPU-attributed)
	o.Samples["core.write_dup_ns"] = m.dups
	o.Samples["core.write_unique_ns"] = m.uniques
	o.Samples["core.read_ns"] = m.reads
	o.Samples["windows"] = int64(len(plainWin.rate) + len(timedWin.rate))
	return o, nil
}
