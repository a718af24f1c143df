package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/experiments"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
)

// shortSim is sim-dup cut down so a test run takes a fraction of a second.
var shortSim = simSpec{
	name:     "short",
	profile:  simDup.profile,
	requests: 20_000,
	warmup:   2_000,
	settle:   4_000,
	window:   2_000,
}

// TestWrapperFidelity checks that measured and timed runs report exactly
// what a run over the bare controller does — device counters included,
// which needs Device forwarded — and that the timed call counts add up.
func TestWrapperFidelity(t *testing.T) {
	prof := shortSim.profile()
	bare := sim.NewMemory(sim.SchemeDeWrite, prof.WorkingSetLines, simConfig())
	res := sim.Run(prof.Name, sim.SchemeDeWrite.String(), bare, prof, shortSim.options(7))
	var buf bytes.Buffer
	if err := sim.NewRunReport(res, bare).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := digest(buf.Bytes())
	if res.Device.Writes == 0 {
		t.Fatal("bare run recorded no device writes")
	}
	for _, timed := range []bool{false, true} {
		r, err := shortSim.rep(7, timed)
		if err != nil {
			t.Fatal(err)
		}
		if r.digest != want {
			t.Errorf("timed=%v: report digest %s, bare controller %s", timed, r.digest, want)
		}
		if r.res.Device != res.Device {
			t.Errorf("timed=%v: device stats %+v, bare controller %+v", timed, r.res.Device, res.Device)
		}
		if got, want := len(r.win.rate), (shortSim.requests-shortSim.settle)/shortSim.window; got != want {
			t.Errorf("timed=%v: %d host-time windows, want %d", timed, got, want)
		}
		if !timed {
			continue
		}
		m, rep := r.timed, r.report
		if uint64(m.dups) != rep.DupEliminated || uint64(m.dups+m.uniques) != rep.Writes {
			t.Errorf("classified %d dup + %d unique writes, controller counted %d of %d",
				m.dups, m.uniques, rep.DupEliminated, rep.Writes)
		}
		if m.lat.Count() != uint64(m.dups+m.uniques) || m.lat.Count()+uint64(m.reads) != uint64(shortSim.requests) {
			t.Errorf("timed %d writes and %d reads, want %d calls", m.lat.Count(), m.reads, shortSim.requests)
		}
	}
}

// TestTracedCountersExcludeVerify checks that the traced pass reports the
// workload's own read-side counters: the read-back that verifies each
// repetition goes through the same controller and must not reach them.
func TestTracedCountersExcludeVerify(t *testing.T) {
	const seed = 5
	prof := shortSim.profile()
	bare := sim.NewMemory(sim.SchemeDeWrite, prof.WorkingSetLines, simConfig())
	sim.Run(prof.Name, sim.SchemeDeWrite.String(), bare, prof, shortSim.options(seed))
	rep := bare.(*core.Controller).Report()
	o, err := shortSim.traced(runConfig{Seed: seed, Seconds: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 {
		t.Fatalf("traced pass failed: %v", o.Problems)
	}
	n := float64(shortSim.requests)
	for name, want := range map[string]float64{
		"core.meta_reads_per_req":  float64(rep.MetaNVMReads) / n,
		"nvm.reads_per_req":        float64(rep.Device.Reads) / n,
		"core.aes_lines_per_write": float64(rep.AESLineOps) / float64(rep.Writes),
	} {
		if got := o.Metrics[name]; got != want {
			t.Errorf("%s = %v, unverified run %v", name, got, want)
		}
	}
}

// TestVerifyCatchesCorruption checks the read-back check against the
// replayed stream: clean after a run, failing once a line is overwritten.
func TestVerifyCatchesCorruption(t *testing.T) {
	r, err := shortSim.rep(3, false)
	if err != nil {
		t.Fatal(err)
	}
	want := shortSim.expected(3)
	o := newOutcome()
	verify(r.ctrl, want, o)
	if o.Failed != 0 {
		t.Fatalf("clean run failed verification: %v", o.Problems)
	}
	var victim uint64
	for addr := range want {
		victim = addr
		break
	}
	var other [config.LineSize]byte
	other[0] = ^want[victim][0]
	r.ctrl.Write(1<<50, victim, other[:])
	verify(r.ctrl, want, o)
	if o.Failed != 1 {
		t.Fatalf("overwritten line: %d failures, want 1", o.Failed)
	}
}

// parseRequest decodes a request frame the way dewrite-serve does.
func parseRequest(r io.Reader) (op byte, key string, val []byte, err error) {
	var hdr [9]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", nil, err
	}
	kl := int(binary.BigEndian.Uint16(hdr[1:3]))
	vl := int(binary.BigEndian.Uint32(hdr[3:7]))
	buf := make([]byte, kl+vl)
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, "", nil, err
	}
	return hdr[0], string(buf[:kl]), buf[kl:], nil
}

func TestFramingRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		defer server.Close()
		store := map[string][]byte{}
		r := bufio.NewReader(server)
		for {
			op, key, val, err := parseRequest(r)
			if err != nil {
				done <- nil
				return
			}
			status, resp := statusOK, []byte(nil)
			switch op {
			case opPut:
				store[key] = append([]byte(nil), val...)
			case opGet:
				resp = store[key]
			default:
				status = 2
			}
			var hdr [5]byte
			hdr[0] = status
			binary.BigEndian.PutUint32(hdr[1:], uint32(len(resp)))
			if _, err := server.Write(append(hdr[:], resp...)); err != nil {
				done <- err
				return
			}
		}
	}()
	k := &kvConn{c: client, r: bufio.NewReader(client)}
	val := bytes.Repeat([]byte{0xab}, serveValueLen)
	if st, _, err := k.do(opPut, "c0-k1", val); err != nil || st != statusOK {
		t.Fatalf("put: status %d, err %v", st, err)
	}
	st, got, err := k.do(opGet, "c0-k1", nil)
	if err != nil || st != statusOK || !bytes.Equal(got, val) {
		t.Fatalf("get: status %d, err %v, value %x", st, err, got)
	}
	if st, _, err := k.do(9, "", nil); err != nil || st != 2 {
		t.Fatalf("unknown op: status %d, err %v", st, err)
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDaemonCPUTime reads this process's CPU time the way the benchmark
// reads the daemon's and checks it against getrusage.
func TestDaemonCPUTime(t *testing.T) {
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: &exec.Cmd{Process: p}}
	before, err := d.cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	for start := cpuTime(); cpuTime()-start < 200*time.Millisecond; {
	}
	after, err := d.cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	if got := after - before; got < 100*time.Millisecond || got > time.Second {
		t.Errorf("200 ms of spinning read as %v of CPU time", got)
	}
	if diff := cpuTime() - after; diff < -50*time.Millisecond || diff > 50*time.Millisecond {
		t.Errorf("/proc CPU time %v, getrusage %v", after, after+diff)
	}
}

func TestReadResponseRejectsOversize(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[1:], maxResponse+1)
	if _, _, err := readResponse(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("oversize response accepted")
	}
}

// TestDigestSkipsHostColumns checks that the suite digest ignores exactly
// the "(this host)" columns.
func TestDigestSkipsHostColumns(t *testing.T) {
	table := func(cell, host string) []experiments.Outcome {
		tb := stats.NewTable("Table I(a)", "hash", "sw ns/line (this host)")
		tb.AddRow(cell, host)
		return []experiments.Outcome{{Experiment: experiments.Experiment{ID: "table1"}, Tables: []*stats.Table{tb}}}
	}
	base := tablesDigest(table("SHA-1", "1819.8"))
	if got := tablesDigest(table("SHA-1", "2163.7")); got != base {
		t.Errorf("host column changed the digest: %s vs %s", got, base)
	}
	if got := tablesDigest(table("MD5", "1819.8")); got == base {
		t.Error("a simulated cell did not change the digest")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step: same names, same order, same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i] || m.Unit != unit[want[i]] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, m.Name, m.Unit, want[i], unit[want[i]])
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
}

// TestDigestsRecorded checks every deterministic workload has a digest.
func TestDigestsRecorded(t *testing.T) {
	for _, w := range []string{"sim-dup", "sim-unique", "suite-quick"} {
		if d := recordedDigest(w); len(d) != 24 {
			t.Errorf("%s: recorded digest %q", w, d)
		}
	}
}
