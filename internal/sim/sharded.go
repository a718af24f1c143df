package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/hashes"
	"dewrite/internal/shard"
	"dewrite/internal/timeline"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// Sharded execution: the controller/device boundary is partitioned into N
// shards, each owning its slice of the address space — its own controller
// (dedup tables, metadata caches, bank queues, wear state) over the lines
// striped onto it — and the shards advance in bulk-synchronous epochs so the
// run is deterministic for any worker count.
//
// Within an epoch (a fixed span of global request indices) each shard
// processes its own subsequence of the prepared stream in order, touching
// only its own state plus the cross-shard fingerprint directory, whose reads
// answer from the generation frozen at the previous barrier and whose writes
// land in commutative pending buffers. At the barrier the directory folds
// the epoch's deltas, the timeline collector ticks once with the merged
// view, and the next epoch begins. Shards therefore never observe each
// other's in-epoch progress, which is what makes the result a pure function
// of (stream, config, shard count): scheduling worker goroutines differently
// cannot change a single counter.
//
// Each shard is a lane, the same request path Run drives, and the lanes merge
// through the same finish. Shard count 1 bypasses the epochs and runs Run
// itself, so its output is byte-identical to RunScheme: per-request timeline
// ticks, the cache hierarchy, span tracing and crash points are
// whole-machine, and only the request-by-request loop supports them.

// DefaultEpochRequests is the barrier period of the sharded run: the number
// of global request indices per epoch. Smaller epochs tighten cross-shard
// directory freshness; larger ones amortize barrier cost.
const DefaultEpochRequests = 1024

// ShardedOptions configures a sharded run. The embedded Options keep their
// sequential meaning, with restrictions: Hierarchy, Tracer and CrashAt are
// not supported at Shards > 1 (the cache filter, span tracing and the crash
// model are whole-machine, not per-shard), and Attr is treated as a request
// for attribution — the run builds one recorder per shard with the same
// sample period and merges the reports.
type ShardedOptions struct {
	Options

	// Shards is the number of controller shards. 0 or 1 selects the
	// sequential path.
	Shards int
	// Workers bounds the goroutines driving shards within an epoch; <= 0
	// uses runtime.GOMAXPROCS(0). The result is identical for any value.
	Workers int
}

// ShardStat is one shard's slice of a sharded run, reported so the balance
// of the partition is visible.
type ShardStat struct {
	Shard     int    `json:"shard"`
	Lines     uint64 `json:"lines"`
	Banks     int    `json:"banks"`
	Requests  uint64 `json:"requests"`
	MemWrites uint64 `json:"mem_writes"`
	MemReads  uint64 `json:"mem_reads"`
	DevReads  uint64 `json:"dev_reads"`
	DevWrites uint64 `json:"dev_writes"`
	Cycles    uint64 `json:"cycles"`
}

// ShardingReport is the sharding block of a run report (schema v5), present
// only for runs executed with Shards > 1.
type ShardingReport struct {
	Shards        int `json:"shards"`
	EpochRequests int `json:"epoch_requests"`
	// Epochs is the number of barriers crossed (== the directory's advance
	// count).
	Epochs uint64 `json:"epochs"`
	// CrossShardDupHits counts measured writes whose fingerprint was live on
	// some other shard per the frozen directory generation — the duplication
	// the address partition splits across shards, observable but not
	// eliminable by the shard-local tables.
	CrossShardDupHits uint64      `json:"cross_shard_dup_hits"`
	Directory         shard.Stats `json:"directory"`
	PerShard          []ShardStat `json:"per_shard"`
}

// shardState is one shard's lane plus its slice of the partition. Only its
// owning worker touches it between barriers.
type shardState struct {
	*lane
	id       int
	lines    uint64
	banks    int
	crossDup uint64 // measured writes whose fingerprint lived on another shard
}

// RunSharded drives a prepared request stream through Shards partitioned
// controllers of the scheme and returns the merged measurements. At Shards
// <= 1 it is exactly RunScheme (byte-identical Result and report); above,
// the Result carries a Sharding block, FinalMemory is nil, and the merged
// counters keep the sequential invariants: attribution cause writes still
// sum exactly to device line writes, generator ground truth is the stream's
// own, and per-shard requests/writes/reads sum to the stream totals. The
// shard lanes merge through the same finish as a sequential run.
func RunSharded(s Scheme, prof workload.Profile, cfg config.Config, opts ShardedOptions) Result {
	if opts.Shards <= 1 {
		res, _ := RunScheme(s, prof, cfg, opts.Options)
		return res
	}
	if opts.Hierarchy != nil {
		panic("sim: sharded runs do not support a CPU cache hierarchy")
	}
	if opts.Tracer.Enabled() {
		panic("sim: sharded runs do not support span tracing")
	}
	if opts.CrashAt != 0 {
		panic("sim: sharded runs do not support crash points")
	}

	n := opts.Shards
	prep := opts.Prepared
	if prep == nil {
		prep = Prepare(prof, opts.Options)
	} else {
		if len(prep.Requests) != opts.Requests {
			panic("sim: prepared stream length does not match Requests")
		}
		if prep.Warmup != opts.Warmup {
			panic("sim: prepared warmup does not match Warmup")
		}
	}

	router := shard.NewRouter(n)
	// Each shard owns an equal slice of the device's banks (at least one),
	// on a single rank: the partition divides the device, it does not
	// replicate it.
	shardCfg := cfg
	shardCfg.NVM.Ranks = 1
	shardCfg.NVM.BanksPerRank = max(cfg.NVM.Banks()/n, 1)

	fingerMask := ^uint32(0)
	if bits := cfg.Dedup.HashSizeBits; bits > 0 && bits < 32 {
		fingerMask = uint32(1)<<bits - 1
	}

	tl := opts.Timeline
	var dir *shard.Directory
	shards := make([]*shardState, n)
	lanes := make([]*lane, n)
	for i := range shards {
		lines := router.LinesFor(i, prof.WorkingSetLines)
		faults := opts.Faults
		if faults.Enabled() {
			faults.Seed += uint64(i)
		}
		mem := NewMemoryWith(s, lines, shardCfg, faults, false)
		if ctrl, ok := mem.(*core.Controller); ok {
			if dir == nil {
				dir = shard.NewDirectory(n)
			}
			d, id := dir, i
			ctrl.Tables().SetPublish(func(h uint32, delta int) { d.Publish(id, h, delta) })
		}
		var rec *attr.Recorder
		if opts.Attr.Enabled() {
			rec = attr.NewRecorder(int(opts.Attr.SamplePeriod()), opts.Seed+uint64(i))
		}
		lanes[i] = newLane(mem, prof.Threads, nil, rec, tl.Enabled())
		shards[i] = &shardState{lane: lanes[i], id: i, lines: lines, banks: shardCfg.NVM.Banks()}
	}

	var tlSrc timeline.Sampler
	if tl.Enabled() {
		tlSrc = timeline.SamplerFunc(func(e *timeline.Epoch, now units.Time) {
			mergeEpoch(e, now, shards, prof.WorkingSetLines)
		})
	}

	process := func(sh *shardState, start, end int) {
		for i := start; i < end; i++ {
			req := &prep.Requests[i]
			if router.ShardOf(req.Addr) != sh.id {
				continue
			}
			measuring := i >= opts.Warmup
			sh.begin(req.Thread, req.Gap, measuring)
			local := router.Local(req.Addr)
			if req.Op != trace.Write {
				sh.read(req.Thread, local, false, measuring)
				continue
			}
			// Fingerprinted as the controller does (masked CRC-32), so the
			// cross-shard census uses the controller's own classes.
			if dir != nil && measuring && dir.HeldElsewhere(hashes.CRC32(req.Data)&fingerMask, sh.id) {
				sh.crossDup++
			}
			sh.write(req.Thread, local, req.Data, "", measuring)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	var epochs uint64
	for start := 0; start < len(prep.Requests); start += DefaultEpochRequests {
		end := min(start+DefaultEpochRequests, len(prep.Requests))
		if workers <= 1 {
			for _, sh := range shards {
				process(sh, start, end)
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= n {
							return
						}
						process(shards[i], start, end)
					}
				}()
			}
			wg.Wait()
		}
		if dir != nil {
			dir.Advance()
		}
		epochs++
		tl.Tick(maxLastDone(shards), uint64(end), tlSrc)
	}

	res := Result{App: prof.Name, Scheme: s.String()}
	res.Gen = genDelta(prep.GenFinal, prep.GenWarm)
	finish(&res, lanes)

	rep := &ShardingReport{Shards: n, EpochRequests: DefaultEpochRequests, Epochs: epochs}
	attrReports := make([]*attr.Report, 0, n)
	for _, sh := range shards {
		rep.CrossShardDupHits += sh.crossDup
		if sh.rec.Enabled() {
			r := sh.rec.Report()
			padBankWrites(r, sh.banks)
			attrReports = append(attrReports, r)
		}
		_, cycles, dev := sh.window()
		rep.PerShard = append(rep.PerShard, ShardStat{
			Shard: sh.id, Lines: sh.lines, Banks: sh.banks,
			Requests: sh.requests, MemWrites: sh.memWrites, MemReads: sh.memReads,
			DevReads: dev.Reads, DevWrites: dev.Writes, Cycles: cycles,
		})
	}

	tl.Finish(maxLastDone(shards), uint64(len(prep.Requests)), tlSrc)
	res.Timeline = tl.Report()
	res.Attribution = attr.MergeReports(attrReports...)
	if dir != nil {
		rep.Directory = dir.Snapshot()
	}
	res.Sharding = rep
	return res
}

// maxLastDone returns the latest completion time across shards — the merged
// run's notion of "now" at a barrier.
func maxLastDone(shards []*shardState) units.Time {
	var t units.Time
	for _, sh := range shards {
		t = max(t, sh.lastDone)
	}
	return t
}

// padBankWrites extends every cause's per-bank breakdown to the shard's
// bank count, so concatenating the per-shard rows in MergeReports yields
// aligned whole-device heatmap rows (shard devices own disjoint banks).
func padBankWrites(r *attr.Report, banks int) {
	if r == nil {
		return
	}
	for i := range r.Causes {
		for len(r.Causes[i].BankWrites) < banks {
			r.Causes[i].BankWrites = append(r.Causes[i].BankWrites, 0)
		}
	}
}

// mergeEpoch folds every shard's sampled epoch state into e: counters and
// occupancy gauges add, WearMax takes the maximum, the wear summary gauges
// (mean, Gini, CoV) merge as line-count-weighted means — exact for the
// mean; for Gini and CoV an approximation that ignores cross-shard
// imbalance, which address striping keeps small — and the per-bank wear
// rows concatenate in shard order.
func mergeEpoch(e *timeline.Epoch, now units.Time, shards []*shardState, totalLines uint64) {
	if totalLines == 0 {
		totalLines = 1
	}
	for _, sh := range shards {
		var se timeline.Epoch
		sh.SampleEpoch(&se, now)
		e.DevReads += se.DevReads
		e.DevWrites += se.DevWrites
		e.EnergyPJ += se.EnergyPJ
		e.BanksBusy += se.BanksBusy
		e.NumBanks += se.NumBanks
		e.QueueDepth += se.QueueDepth
		if se.WearMax > e.WearMax {
			e.WearMax = se.WearMax
		}
		w := float64(sh.lines) / float64(totalLines)
		e.WearMean += se.WearMean * w
		e.WearGini += se.WearGini * w
		e.WearCoV += se.WearCoV * w
		e.BankWear = append(e.BankWear, se.BankWear...)
		e.Writes += se.Writes
		e.DupEliminated += se.DupEliminated
		e.ZeroWrites += se.ZeroWrites
		e.MetaHits += se.MetaHits
		e.MetaMisses += se.MetaMisses
		e.DedupLive += se.DedupLive
		e.DedupMapped += se.DedupMapped
		e.FaultECP += se.FaultECP
		e.FaultRemaps += se.FaultRemaps
		e.FaultStuck += se.FaultStuck
		e.FaultFlips += se.FaultFlips
		e.FaultSpareUsed += se.FaultSpareUsed
		e.FaultBanksRetired += se.FaultBanksRetired
	}
}
