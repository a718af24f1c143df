// Command perfbench is the repository benchmark: one command that runs a
// named workload against the DeWrite stack, checks its outputs, and prints
// every end-to-end metric (or, with -trace 1, every per-layer metric) as a
// single JSON line.
//
//	perfbench -workload sim-dup -seed 42 -seconds 10 -trace 0
//
// It measures from outside the program: it calls the public functions of
// internal/sim, core, workload, hashes, crypto/aes, cme, dedup, metacache,
// nvm and experiments, and drives dewrite-serve as a spawned binary over
// loopback, reading the daemon's /debug/vars. It adds no tracing inside the
// program; per-layer numbers come from wrappers around the calls into each
// layer and from replaying each layer on the workload's own lines.
//
// # Workloads
//
//   - sim-dup: sim.Run over sim.NewMemory(SchemeDeWrite) on the lbm profile
//     (90 % duplicates, 64 Ki lines), one goroutine, as dewrite-sim does. It
//     exercises the dedup-hit path (CRC, candidates, decrypt-and-compare,
//     remap) while the device sees few line writes, so dedup, metacache and
//     compare costs dominate.
//   - sim-unique: the same harness on workload.WorstCase(), the paper's
//     §IV-C4 adversary (0 % duplicates, full-line rewrites). Every write is
//     unique, so AES line encryption and device writes dominate and the
//     compare path never runs: the contrast workload for any change to the
//     dedup path or the device.
//   - serve-kv: dewrite-serve with default flags on ephemeral loopback
//     ports, driven closed-loop by this process over nproc connections with
//     the framed protocol. The connections split 32 768 keys, half the
//     daemon's lines, and each prefills its own (pipelined, part of the
//     set-up), then sends 50 % PUT / 50 % GET uniform over them, one
//     request at a time; half the PUT values come from a fixed pool of 256
//     (deduplicable), half are fresh. The only
//     workload that exercises framing, mailbox handoff, epoch barriers, the
//     shard directory and wall-clock latency.
//   - suite-quick: the quick experiment suite as dewrite-bench -quick runs
//     it (NewSuite, Prefill, RunAll with nproc workers). The command
//     researchers run, and the only workload that exercises baseline, cache,
//     memctrl and the experiment sweeps; fig21 sets its wall time.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric, so each one is defined
// for each workload. A "request" is a simulated memory request (sim-*,
// suite-quick) or a client request (serve-kv). Host cost is CPU time, not
// wall time: on a shared VM the wall time of the same work moved by a
// quarter or more from run to run, with the host descheduling the vCPUs,
// while the CPU time accounted to the program moved by a few percent (see
// windows). Wall throughput and latency percentiles are per-layer metrics.
//
//   - setup_s: the CPU time of the set-up, the median over several
//     set-ups in the run. sim-*: this process building the memory.
//     serve-kv: the daemon from its start through /readyz and the
//     prefill. suite-quick: this process in NewSuite and Prefill (see
//     suiteSetups).
//   - cpu_us_per_req: host CPU (user+sys) per request. sim-*: this
//     process, the median over windows of requests once a repetition has
//     settled (see simSpec). serve-kv: the daemon, the median over
//     one-second windows of the load. suite-quick: this process over
//     RunAll.
//   - allocs_per_req: mallocs per request (the daemon's, from the memstats
//     entry of /debug/vars, for serve-kv).
//   - nvm_writes_per_write: physical line writes per CPU write, the
//     endurance claim (simulated; the DeWrite runs of the quick apps for
//     suite-quick, the shard controllers for serve-kv).
//   - energy_pj_per_req: simulated memory-system energy per request.
//
// # Per-layer metrics and what they should move
//
// A layer a workload does not exercise reports 0 on that workload.
//
//   - req_per_s: requests per wall second — the median over windows for
//     sim-* (measured repetitions) and serve-kv, Simulations() × Requests
//     over RunAll's wall time for suite-quick. It moves with the host as
//     much as with the program.
//   - latency.p50_us, latency.p99_us: host latency of one request as its
//     caller sees it — the controller Write call (sim-*, timed in the
//     traced pass), the client round trip (serve-kv), one experiment's
//     RunAll Outcome.Wall (suite-quick).
//   - workload.next_ns → cpu_us_per_req on both sim workloads and
//     suite-quick (fig21 regenerates its streams).
//   - sim.self_ns_per_req (run time minus time inside controller calls) →
//     cpu_us_per_req on the sim workloads.
//   - core.write_ns, core.write_dup_ns, core.write_unique_ns, core.read_ns:
//     the dup-path times move cpu_us_per_req on sim-dup only; sim-unique
//     should not change. The op ratios (core.dup_frac,
//     core.aes_lines_per_write, core.aes_wasted_frac,
//     core.compares_per_write, core.meta_reads_per_req,
//     core.meta_writes_per_req, predict.accuracy) move the simulated
//     metrics.
//   - metacache.{hash,addrmap,invhash,fsm}.hit_rate → sim.write_ns and
//     sim.ipc; metacache.lookup_ns → cpu_us_per_req (and suite-quick via
//     fig21).
//   - dedup.collisions_per_kwrite, dedup.saturated_per_kwrite,
//     dedup.candidates_ns → sim-dup only.
//   - Microcosts replayed on the workload's own lines and addresses:
//     hashes.crc32_ns (one CRC per write on the sim workloads; three per
//     PUT on serve-kv, so it moves latency.p50_us there), aes.block_ns and
//     cme.encrypt_line_ns (sim-unique more than sim-dup), nvm.write_ns,
//     nvm.read_ns.
//   - Device ratios nvm.writes_per_req, nvm.reads_per_req, nvm.row_hit_rate,
//     nvm.write_wait_ns (simulated), nvm.bits_flipped_per_write: a
//     device-state change should move sim-unique and leave sim-dup flat.
//   - ledger.attributed_ns_per_req and ledger.unattributed_ns_per_req
//     (microcost × per-request op count, and the rest of the CPU
//     ns/request), with runtime.gc_per_mreq, runtime.bytes_per_req and
//     trace.overhead_frac, explain cpu_us_per_req and allocs_per_req.
//   - serve.server_put_ns, serve.server_get_ns, serve.wire_ns →
//     latency.p50_us;
//     serve.barrier_stall_ns_per_req, serve.advance_ns_per_req,
//     serve.advances_per_kreq → latency.p99_us; serve.dup_eliminated_frac,
//     shard.cross_dup_frac, shard.publishes_per_put, serve.shard_imbalance,
//     serve.shed_frac, serve.slow_frac, serve.daemon_gc_per_kreq,
//     serve.daemon_bytes_per_req → req_per_s and cpu_us_per_req on
//     serve-kv.
//   - experiments.<id>.wall_s, experiments.prefill.wall_s and
//     experiments.parallel_eff: only fig21 moves suite-quick's wall time
//     (req_per_s, suite.wall_s); all of them move its cpu_us_per_req.
//   - sim.ipc, sim.write_ns, sim.read_ns (simulated), runtime.live_heap_mb,
//     suite.wall_s, suite.cpu_s and fail_frac complete the picture.
//
// The traced pass (-trace 1) is separate from the end-to-end runs. The sim
// workloads alternate measured repetitions with repetitions through a
// wrapper that classifies and times every controller call, and require
// their simulated reports to be identical; counters are read before the
// read-back check, which goes through the same controller. serve-kv times
// each request on the client and scrapes the daemon before and after.
// suite-quick records each experiment's Outcome.Wall.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it give the
// machine block and the sample count behind each percentile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// unit names the unit of every metric the benchmark reports; e2eMetrics and
// layerMetrics list which metrics each kind of run prints.
var unit = map[string]string{}

var e2eMetrics = declare([][2]string{
	{"setup_s", "s"},
	{"cpu_us_per_req", "us"},
	{"allocs_per_req", "count"},
	{"nvm_writes_per_write", "count"},
	{"energy_pj_per_req", "pJ"},
})

var layerMetrics = declare([][2]string{
	{"req_per_s", "1/s"},
	{"latency.p50_us", "us"},
	{"latency.p99_us", "us"},
	{"workload.next_ns", "ns"},
	{"sim.self_ns_per_req", "ns"},
	{"sim.ipc", "ratio"},
	{"sim.write_ns", "sim-ns"},
	{"sim.read_ns", "sim-ns"},
	{"core.write_ns", "ns"},
	{"core.write_dup_ns", "ns"},
	{"core.write_unique_ns", "ns"},
	{"core.read_ns", "ns"},
	{"core.dup_frac", "ratio"},
	{"core.aes_lines_per_write", "count"},
	{"core.aes_wasted_frac", "ratio"},
	{"core.compares_per_write", "count"},
	{"core.meta_reads_per_req", "count"},
	{"core.meta_writes_per_req", "count"},
	{"predict.accuracy", "ratio"},
	{"metacache.hash.hit_rate", "ratio"},
	{"metacache.addrmap.hit_rate", "ratio"},
	{"metacache.invhash.hit_rate", "ratio"},
	{"metacache.fsm.hit_rate", "ratio"},
	{"metacache.lookup_ns", "ns"},
	{"dedup.collisions_per_kwrite", "count"},
	{"dedup.saturated_per_kwrite", "count"},
	{"dedup.candidates_ns", "ns"},
	{"hashes.crc32_ns", "ns"},
	{"aes.block_ns", "ns"},
	{"cme.encrypt_line_ns", "ns"},
	{"nvm.write_ns", "ns"},
	{"nvm.read_ns", "ns"},
	{"nvm.writes_per_req", "count"},
	{"nvm.reads_per_req", "count"},
	{"nvm.row_hit_rate", "ratio"},
	{"nvm.write_wait_ns", "sim-ns"},
	{"nvm.bits_flipped_per_write", "count"},
	{"ledger.attributed_ns_per_req", "ns"},
	{"ledger.unattributed_ns_per_req", "ns"},
	{"runtime.gc_per_mreq", "count"},
	{"runtime.bytes_per_req", "B"},
	{"runtime.live_heap_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"serve.server_put_ns", "ns"},
	{"serve.server_get_ns", "ns"},
	{"serve.wire_ns", "ns"},
	{"serve.barrier_stall_ns_per_req", "ns"},
	{"serve.advance_ns_per_req", "ns"},
	{"serve.advances_per_kreq", "count"},
	{"serve.dup_eliminated_frac", "ratio"},
	{"shard.cross_dup_frac", "ratio"},
	{"shard.publishes_per_put", "count"},
	{"serve.shard_imbalance", "ratio"},
	{"serve.shed_frac", "ratio"},
	{"serve.slow_frac", "ratio"},
	{"serve.daemon_gc_per_kreq", "count"},
	{"serve.daemon_bytes_per_req", "B"},
	{"experiments.fig21.wall_s", "s"},
	{"experiments.fig13.wall_s", "s"},
	{"experiments.abl-cachescale.wall_s", "s"},
	{"experiments.faultcampaign.wall_s", "s"},
	{"experiments.abl-hashwidth.wall_s", "s"},
	{"experiments.prefill.wall_s", "s"},
	{"experiments.parallel_eff", "ratio"},
	{"suite.wall_s", "s"},
	{"suite.cpu_s", "s"},
	{"fail_frac", "ratio"},
})

// declare records each metric's unit and returns the names in order.
func declare(list [][2]string) []string {
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m[0]
		unit[m[0]] = m[1]
	}
	return names
}

// runConfig is what one invocation asks for.
type runConfig struct {
	Seed     uint64
	Seconds  float64
	Trace    bool
	ServeBin string
}

// outcome is one workload run's product. Metrics holds end-to-end values
// for an untraced run and per-layer values for a traced one; Samples holds
// the sample count behind each percentile.
type outcome struct {
	Attempted int64
	Failed    int64
	Problems  []string
	Metrics   map[string]float64
	Samples   map[string]int64
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Samples: map[string]int64{}}
}

// fail records n failed checks with a description of the first.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.Failed += n
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"sim-dup":     func(c runConfig) (*outcome, error) { return runSim(simDup, c) },
	"sim-unique":  func(c runConfig) (*outcome, error) { return runSim(simUnique, c) },
	"serve-kv":    runServe,
	"suite-quick": runSuite,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: sim-dup, sim-unique, serve-kv or suite-quick")
		seed     = flag.Uint64("seed", 42, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured time per run")
		traceOn  = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		serveBin = flag.String("serve-bin", "", "dewrite-serve binary (serve-kv only)")
		commit   = flag.String("commit", "unknown", "source revision recorded in the machine block")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (sim-dup|sim-unique|serve-kv|suite-quick), -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1, ServeBin: *serveBin}

	out := os.Stdout
	machine := machineBlock(*commit, *seed)
	mb, err := json.Marshal(map[string]any{"machine": machine})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", mb)

	oc, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	names := e2eMetrics
	if cfg.Trace {
		names = layerMetrics
		if oc.Attempted > 0 {
			oc.Metrics["fail_frac"] = float64(oc.Failed) / float64(oc.Attempted)
		}
	}
	res := result{
		Correct:   oc.Failed == 0,
		Attempted: oc.Attempted,
		Failed:    oc.Failed,
		Metrics:   make(map[string]metricValue, len(names)),
	}
	for _, n := range names {
		v, ok := oc.Metrics[n]
		if !ok && !cfg.Trace {
			fatal(fmt.Errorf("%s: end-to-end metric %s was not measured", *name, n))
		}
		res.Metrics[n] = metricValue{Value: v, Unit: unit[n]}
		fmt.Fprintf(out, "%-36s %16.6g %s\n", n, v, unit[n])
	}
	sampleNames := make([]string, 0, len(oc.Samples))
	for n := range oc.Samples {
		sampleNames = append(sampleNames, n)
	}
	sort.Strings(sampleNames)
	for _, n := range sampleNames {
		fmt.Fprintf(out, "samples %-28s %d\n", n, oc.Samples[n])
	}
	for _, p := range oc.Problems {
		fmt.Fprintf(out, "FAILED: %s\n", p)
	}
	if res.Attempted < 1 {
		fatal(fmt.Errorf("%s: no operations attempted", *name))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// machineBlock describes the host a result was measured on.
func machineBlock(commit string, seed uint64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"seed":       seed,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
