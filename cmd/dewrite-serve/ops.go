package main

import (
	"strconv"

	"dewrite/internal/monitor"
)

// The serving daemon's metric taxonomy. Every serve-owned metric carries the
// serve_ prefix; the per-shard controller gauges additionally use the
// serve_shard_<n>.* prefix family published through Registry.PublishEpoch.
//
//	metric                            type       labels       meaning
//	--------------------------------  ---------  -----------  ----------------------------------------------
//	serve_requests_total              counter    op           responses committed to clients, by op
//	serve_errors_total                counter    op, cause    error responses and protocol failures, by cause
//	serve_request_latency_ns          histogram  op           wall-clock frame-read → response-committed latency
//	serve_flush_failures_total        counter    —            counted responses whose flush to the client failed
//	serve_slow_requests_total         counter    —            requests admitted to the /debug/slow ring
//	serve_connections_total           counter    —            client connections accepted
//	serve_connections_open            gauge      —            client connections currently open
//	serve_queue_depth                 gauge      shard        owner mailbox depth sampled at enqueue
//	serve_occupancy                   gauge      shard        fraction of the shard's lines holding a key
//	serve_keys                        gauge      shard        distinct keys stored on the shard
//	serve_puts / serve_gets /
//	serve_misses                      gauge      shard        owner op counts folded at each barrier
//	serve_cross_shard_dup_hits        gauge      shard        puts whose fingerprint was live on another shard
//	serve_barrier_stall_ns_total      counter    shard        wall ns owners spent blocked at the epoch barrier
//	serve_advances_total              counter    —            epoch barriers crossed
//	serve_advance_ns_total            counter    —            wall ns spent inside barriers (directory fold + publish)
//	serve_directory_publishes         gauge      shard        fingerprint deltas each shard published last epoch
//	serve_directory_*                 gauge      —            frozen-generation census (fingerprints, locations, …)
//	serve_ready                       gauge      —            1 once generation zero has published
//	serve_draining                    gauge      —            1 while graceful shutdown drains in-flight work
//	serve_shed_total                  counter    shard, cause requests refused admission (watermark, drain,
//	                                                          queue_full) or expired in queue (deadline)
//	serve_drain_mode                  gauge      shard        1 while the shard is between watermarks shedding
//	serve_snapshots_total             counter    —            snapshot generations committed
//	serve_snapshot_aborts_total       counter    —            snapshots abandoned mid-write (chaos or error)
//	serve_snapshot_last_generation    gauge      —            generation number of the last committed snapshot
//	serve_recovery_generation         gauge      —            snapshot generation restored at boot (0 = cold)
//	serve_recovery_keys               gauge      —            keys recovered across all shards at boot
//	serve_recovery_dropped_keys       gauge      —            keys dropped by the post-restore scrub (poisoned)
//	serve_chaos_conn_resets_total     counter    —            connections torn down by the fault plan
//	serve_chaos_slow_reads_total      counter    —            reads paced by injected slow-loris delay
//	serve_chaos_stalls_total          counter    —            shard-owner stalls injected by the fault plan
//	serve_shard_<n>.*                 gauge      —            controller epoch sample (dup_eliminated, wear, …)
//
// Counters are monotonic (rates come from scrape deltas), gauges are
// last-write-wins snapshots, and the latency histogram is a native
// Prometheus histogram whose log-spaced buckets reuse the simulator's
// stats.Latency geometry — see DESIGN.md §13. Serve metrics are runtime-only:
// none of them appear in run reports, so the frozen report schemas are
// untouched.
//
// Books balance: every response is counted when it is committed — written
// to the connection's buffer, before the flush — in exactly one of
// serve_requests_total (OK / NotFound / Error) or serve_shed_total (BUSY /
// DEADLINE), so responses received by clients equal requests + sheds −
// serve_flush_failures_total at any moment a client can observe. The chaos
// soak pins this equality.

// latencyBounds spans 1 µs to ~17 s with two buckets per power of two —
// wide enough for a loaded barrier stall, fine enough for meaningful
// p50/p95/p99 interpolation in dewrite-top.
func latencyBounds() []uint64 {
	const (
		microsecond = 1_000          // histogram unit is nanoseconds
		ceiling     = 17_000_000_000 // ~17 s; beyond lands in +Inf
	)
	return monitor.LatencyBounds(microsecond, ceiling, 2)
}

// Shed causes, indexed into serveMetrics.sheds. Admission-time causes come
// first; shedDeadline is charged by the shard owner when an admitted
// request's budget expires in the queue.
const (
	shedWatermark = iota // drain mode entered at this admission
	shedDrain            // drain mode already active
	shedQueueFull        // mailbox full with drain mode off (burst overflow)
	shedDeadline         // admitted, but expired before execution
	shedCauses
)

var shedCauseNames = [shedCauses]string{"watermark", "drain", "queue_full", "deadline"}

// serveMetrics holds the hot-path instruments, resolved once at construction
// so request handling never renders label sets.
type serveMetrics struct {
	// requests is indexed by op-1 (OpPut, OpGet, OpStats); the final slot is
	// the op="unknown" bucket, so a committed error response to an
	// unrecognized opcode still lands in the books.
	requests [4]*monitor.Counter
	latency  [3]*monitor.Histogram // indexed by op-1; unknown ops have no latency family
	stalls   []*monitor.Counter    // per shard: serve_barrier_stall_ns_total

	slowTotal     *monitor.Counter
	connsTotal    *monitor.Counter
	flushFailures *monitor.Counter // serve_flush_failures_total
	advances      *monitor.Counter
	advanceNs     *monitor.Counter

	// Admission control and backpressure, per shard.
	sheds      [][shedCauses]*monitor.Counter // serve_shed_total{shard,cause}
	queueDepth []*monitor.Gauge               // serve_queue_depth{shard}
	drainMode  []*monitor.Gauge               // serve_drain_mode{shard}

	// Crash-safe state and fault injection.
	snapshots      *monitor.Counter
	snapshotAborts *monitor.Counter
	snapLastGen    *monitor.Gauge
	chaosResets    *monitor.Counter
	chaosSlowReads *monitor.Counter
	chaosStalls    *monitor.Counter
}

func opName(op byte) string {
	switch op {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpStats:
		return "stats"
	default:
		return "unknown"
	}
}

func newServeMetrics(reg *monitor.Registry, shards int) *serveMetrics {
	m := &serveMetrics{
		slowTotal:      reg.Counter("serve_slow_requests_total"),
		connsTotal:     reg.Counter("serve_connections_total"),
		flushFailures:  reg.Counter("serve_flush_failures_total"),
		advances:       reg.Counter("serve_advances_total"),
		advanceNs:      reg.Counter("serve_advance_ns_total"),
		snapshots:      reg.Counter("serve_snapshots_total"),
		snapshotAborts: reg.Counter("serve_snapshot_aborts_total"),
		snapLastGen:    reg.Gauge("serve_snapshot_last_generation"),
		chaosResets:    reg.Counter("serve_chaos_conn_resets_total"),
		chaosSlowReads: reg.Counter("serve_chaos_slow_reads_total"),
		chaosStalls:    reg.Counter("serve_chaos_stalls_total"),
	}
	bounds := latencyBounds()
	for _, op := range []byte{OpPut, OpGet, OpStats} {
		label := monitor.Label{Key: "op", Value: opName(op)}
		m.requests[op-1] = reg.Counter("serve_requests_total", label)
		m.latency[op-1] = reg.Histogram("serve_request_latency_ns", bounds, label)
	}
	m.requests[len(m.requests)-1] = reg.Counter("serve_requests_total",
		monitor.Label{Key: "op", Value: "unknown"})
	for i := 0; i < shards; i++ {
		label := monitor.Label{Key: "shard", Value: strconv.Itoa(i)}
		m.stalls = append(m.stalls, reg.Counter("serve_barrier_stall_ns_total", label))
		m.queueDepth = append(m.queueDepth, reg.Gauge("serve_queue_depth", label))
		m.drainMode = append(m.drainMode, reg.Gauge("serve_drain_mode", label))
		var causes [shedCauses]*monitor.Counter
		for c, name := range shedCauseNames {
			causes[c] = reg.Counter("serve_shed_total", label,
				monitor.Label{Key: "cause", Value: name})
		}
		m.sheds = append(m.sheds, causes)
	}
	return m
}

// shedTotal sums every shed counter — the other half of the books-balance
// equation (used by tests and the chaos soak).
func (m *serveMetrics) shedTotal() uint64 {
	var total uint64
	for _, causes := range m.sheds {
		for _, c := range causes {
			total += c.Value()
		}
	}
	return total
}

// errorCause increments serve_errors_total for one (op, cause) pair. Error
// paths are rare, so rendering the label set per call is fine.
func (s *Server) errorCause(op byte, cause string) {
	s.reg.Counter("serve_errors_total",
		monitor.Label{Key: "op", Value: opName(op)},
		monitor.Label{Key: "cause", Value: cause}).Inc()
}

// startOps brings up the ops HTTP surface over the server's registry:
// /metrics (gauges + counters + histograms), /debug/vars, /healthz, and the
// serving-specific endpoints /readyz (503 until generation zero publishes)
// and /debug/slow (the slowest-recent-requests ring).
func startOps(addr string, srv *Server) (*monitor.Server, error) {
	return monitor.ServeWith(addr, srv.Registry(), monitor.ServeOpts{
		Ready: srv.Ready,
		Slow:  srv.slow,
	})
}
