package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"strings"
	"time"

	"dewrite/internal/experiments"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/units"
)

// suiteSetups is how many suites an untraced run builds and prefills to
// time the set-up; the last one is run. NewSuite alone takes under a
// microsecond, too little to time steadily, so the set-up includes Prefill,
// which materializes every application's request stream before the
// experiments run. The reported set-up time is the median over these.
const suiteSetups = 7

// suiteLayerExperiments are the experiments whose wall time the traced pass
// reports: fig21 sets the suite's wall time, the others its CPU time.
var suiteLayerExperiments = []string{"fig21", "fig13", "abl-cachescale", "faultcampaign", "abl-hashwidth"}

// runSuite runs the quick experiment suite once, as dewrite-bench -quick
// does: NewSuite and Prefill (the set-up), then RunAll with nproc workers
// (the measured phase). The suite is a fixed amount of work, so it runs
// once even when that takes longer than the requested seconds.
func runSuite(c runConfig) (*outcome, error) {
	o := newOutcome()
	opts := experiments.QuickOptions()
	opts.Seed = c.Seed
	workers := experiments.Workers(runtime.NumCPU())

	setups := suiteSetups
	if c.Trace {
		setups = 1
	}
	var (
		suite         *experiments.Suite
		times         []float64
		prefill, pcpu time.Duration
		pmallocs      uint64
	)
	for i := 0; i < setups; i++ {
		suite = nil
		runtime.GC()
		m0, c0 := readMem(), cpuTime()
		t0 := time.Now()
		suite = experiments.NewSuite(opts)
		suite.Prefill(workers)
		prefill = time.Since(t0)
		pcpu = cpuTime() - c0
		pmallocs = readMem().mallocs - m0.mallocs
		times = append(times, pcpu.Seconds())
	}

	exps := experiments.All()
	m0, c0 := readMem(), cpuTime()
	start := time.Now()
	outs := experiments.RunAll(suite, exps, workers)
	wall := time.Since(start)
	cpu := cpuTime() - c0
	m1 := readMem()

	o.Attempted = int64(len(outs))
	for _, oc := range outs {
		if len(oc.Tables) == 0 {
			o.fail(1, "experiment %s returned no tables", oc.Experiment.ID)
			continue
		}
		for _, t := range oc.Tables {
			if t.NumRows() == 0 || len(t.Columns) == 0 {
				o.fail(1, "experiment %s: table %q is empty", oc.Experiment.ID, t.Title)
				break
			}
		}
	}
	checkDigest("suite-quick", c.Seed, tablesDigest(outs), o)

	simulated := float64(suite.Simulations()) * float64(opts.Requests)
	// The simulated metrics are those of the DeWrite runs over the quick
	// application set.
	var devWrites, memWrites, energy, requests, ipc, writeNs, readNs float64
	profs := opts.Profiles()
	for _, p := range profs {
		r := suite.Run(sim.SchemeDeWrite, p)
		devWrites += float64(r.Device.Writes)
		memWrites += float64(r.MemWrites)
		energy += r.EnergyPJ
		requests += float64(r.Requests)
		ipc += r.IPC
		writeNs += float64(r.MeanWriteLat) / float64(units.Nanosecond)
		readNs += float64(r.MeanReadLat) / float64(units.Nanosecond)
	}

	if !c.Trace {
		o.Metrics["setup_s"] = median(times)
		o.Metrics["cpu_us_per_req"] = cpu.Seconds() * 1e6 / simulated
		o.Samples["setup_s"] = int64(len(times))
		// dewrite-bench counts the Prefill's mallocs too.
		o.Metrics["allocs_per_req"] = float64(pmallocs+m1.mallocs-m0.mallocs) / simulated
		o.Metrics["nvm_writes_per_write"] = ratio(devWrites, memWrites)
		o.Metrics["energy_pj_per_req"] = ratio(energy, requests)
		return o, nil
	}

	set := func(name string, v float64) { o.Metrics[name] = v }
	set("req_per_s", simulated/wall.Seconds())
	var lat stats.Latency
	for _, oc := range outs {
		observe(&lat, oc.Wall)
	}
	set("latency.p50_us", micros(lat.P50()))
	set("latency.p99_us", micros(lat.P99()))
	o.Samples["latency"] = int64(lat.Count())
	for _, oc := range outs {
		for _, id := range suiteLayerExperiments {
			if oc.Experiment.ID == id {
				set("experiments."+id+".wall_s", oc.Wall.Seconds())
			}
		}
	}
	np := float64(len(profs))
	// The suite's wall and CPU time are those of dewrite-bench -quick:
	// Prefill and RunAll.
	set("experiments.prefill.wall_s", prefill.Seconds())
	set("experiments.parallel_eff", (pcpu+cpu).Seconds()/((prefill+wall).Seconds()*float64(workers)))
	set("suite.wall_s", (prefill + wall).Seconds())
	set("suite.cpu_s", (pcpu + cpu).Seconds())
	set("sim.ipc", ipc/np)
	set("sim.write_ns", writeNs/np)
	set("sim.read_ns", readNs/np)
	set("runtime.gc_per_mreq", float64(m1.numGC-m0.numGC)*1e6/simulated)
	set("runtime.bytes_per_req", float64(m1.totalAlloc-m0.totalAlloc)/simulated)
	set("runtime.live_heap_mb", liveHeapMB())
	runtime.KeepAlive(suite)

	// Controller and device ratios over the DeWrite replays of the quick
	// applications.
	var writes, reqs, dups, aes, wasted, compares, metaR, metaW, coll, sat, pred float64
	var dReads, dWrites, rowHits, flips float64
	var next float64
	for _, p := range profs {
		r := suite.CoreReport(p)
		writes += float64(r.Writes)
		reqs += float64(r.Writes + r.Reads)
		dups += float64(r.DupEliminated)
		aes += float64(r.AESLineOps)
		wasted += float64(r.AESWasted)
		compares += float64(r.CompareOps)
		metaR += float64(r.MetaNVMReads)
		metaW += float64(r.MetaNVMWrites)
		coll += float64(r.Dedup.Collisions)
		sat += float64(r.Dedup.Saturated)
		pred += r.PredAccuracy
		dReads += float64(r.Device.Reads)
		dWrites += float64(r.Device.Writes)
		rowHits += float64(r.Device.RowHits)
		flips += float64(r.Device.BitsFlipped)
		next += generatorNs(p, c.Seed, microBudget/time.Duration(len(profs)))
	}
	set("workload.next_ns", next/np)
	set("core.dup_frac", ratio(dups, writes))
	set("core.aes_lines_per_write", ratio(aes, writes))
	set("core.aes_wasted_frac", ratio(wasted, aes))
	set("core.compares_per_write", ratio(compares, writes))
	set("core.meta_reads_per_req", ratio(metaR, reqs))
	set("core.meta_writes_per_req", ratio(metaW, reqs))
	set("predict.accuracy", pred/np)
	set("dedup.collisions_per_kwrite", ratio(1000*coll, writes))
	set("dedup.saturated_per_kwrite", ratio(1000*sat, writes))
	set("nvm.writes_per_req", ratio(dWrites, reqs))
	set("nvm.reads_per_req", ratio(dReads, reqs))
	set("nvm.row_hit_rate", ratio(rowHits, dReads))
	set("nvm.bits_flipped_per_write", ratio(flips, dWrites))
	return o, nil
}

// hostColumn marks table columns that hold host measurements; they vary
// run to run and are left out of the digest.
const hostColumn = "(this host)"

// tablesDigest digests every experiment's tables: titles, headers and
// cells, except the columns whose header contains "(this host)".
func tablesDigest(outs []experiments.Outcome) string {
	h := sha256.New()
	for _, oc := range outs {
		io.WriteString(h, oc.Experiment.ID+"\x00")
		for _, t := range oc.Tables {
			digestTable(h, t)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func digestTable(w io.Writer, t *stats.Table) {
	io.WriteString(w, t.Title+"\x00")
	var keep []int
	for i, c := range t.Columns {
		if !strings.Contains(c, hostColumn) {
			keep = append(keep, i)
			io.WriteString(w, c+"\x1f")
		}
	}
	for r := 0; r < t.NumRows(); r++ {
		for _, i := range keep {
			io.WriteString(w, t.Cell(r, i)+"\x1f")
		}
		io.WriteString(w, "\x1e")
	}
}
