// Command perfbench is the repository's benchmark of the real forwarding
// stack: a core.Server assembled as cmd/fwdd assembles it, on a loopback
// TCP listener, driven by core.ClientConfig clients in closed loops.
//
//	perfbench --workload ckpt-stream --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// a traced pass of a fixed number of epochs and an untraced pass of the
// same epochs, wraps every layer boundary in the traced pass, and prints
// the per-layer metrics and the tracing overhead. The last line of
// standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
// when an operation failed or a byte read back differs from what was
// acknowledged. See README.md for the workloads and metric definitions.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

func main() {
	wname := flag.String("workload", "", "workload: ckpt-stream | smallop-mix | spill-stripe")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "timed seconds of a --trace 0 run (a --trace 1 run does a fixed number of epochs)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for WAL, stripe members and trace files")
	flag.Parse()

	w, ok := findWorkload(*wname)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wname, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(context.Background(), w, defaultParams, uint64(*seed), time.Duration(*seconds)*time.Second, *trace == 1, *workdir, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name  string
	value float64
	unit  string
}

// run executes one benchmark run and prints its report to out. The
// returned error is for failures of the harness itself (a stack that would
// not assemble, an unwritable work directory); failed operations and
// mismatches are reported in the result.
func run(ctx context.Context, w workload, p params, seed uint64, budget time.Duration, traced bool, workdir string, out io.Writer) (*result, error) {
	rundir := filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(rundir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(rundir)
	bw := bufio.NewWriter(out)
	defer bw.Flush()

	prov := provenance(w, p, seed, budget, traced, rundir)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(bw, "provenance %s\n", pj)

	var passes []*pass
	var report []metric
	steal0, total0 := cpuTicks()
	if !traced {
		ps, err := runPass(ctx, w, p, seed, budget, 0, true, nil, rundir)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		report = ps.endToEnd()
		printMetrics(bw, "end-to-end", report)
		printSamples(bw, ps)
	} else {
		var err error
		if passes, report, err = traceRun(ctx, w, p, seed, rundir, workdir, bw); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, ps := range passes {
		a, f, mismatch, ferr := ps.tally()
		res.Attempted += a
		res.Failed += f
		if mismatch != "" {
			res.Correct = false
			fmt.Fprintf(bw, "VERIFY FAILED: %s\n", mismatch)
		}
		if ferr != nil {
			fmt.Fprintf(bw, "OPERATION FAILED: %v\n", ferr)
		}
	}
	fmt.Fprintf(bw, "error_rate %.6g (%d failed of %d attempted)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	steal1, total1 := cpuTicks()
	fmt.Fprintf(bw, "host steal: %.4f of the machine's CPU time during the run (time the hypervisor gave to others)\n", ratio(float64(steal1-steal0), float64(total1-total0)))
	for _, m := range report {
		res.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(bw, "%s\n", rj)
	return res, nil
}

// traceRun runs the traced pass for the workload's fixed number of epochs,
// so that its totals measure a fixed amount of work rather than a time
// window; derives the per-layer metrics, writes the spans out and releases
// them; and then runs an untraced pass of the same epochs, so the two
// differ only in tracing.
func traceRun(ctx context.Context, w workload, p params, seed uint64, rundir, workdir string, bw *bufio.Writer) ([]*pass, []metric, error) {
	tr := newTracer()
	tps, err := runPass(ctx, w, p, seed, 0, w.traced(p), false, tr, rundir)
	if err != nil {
		return nil, nil, err
	}
	self := tr.analyse()
	report := tps.perLayer(tr, self)
	path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.tsv.gz", w.name, seed))
	if err := tr.writeOut(path, self); err != nil {
		return nil, nil, err
	}
	nspans := len(tr.spans)
	tr.spans, self = nil, nil
	runtime.GC()
	debug.FreeOSMemory()

	plain, err := runPass(ctx, w, p, seed, 0, len(tps.epochs), false, nil, rundir)
	if err != nil {
		return nil, nil, err
	}
	e2eU, e2eT := plain.endToEnd(), tps.endToEnd()
	printMetrics(bw, "end-to-end, untraced pass", e2eU)
	printMetrics(bw, "end-to-end, traced pass", e2eT)
	for i := range e2eT {
		report = append(report, metric{"overhead." + e2eT[i].name, e2eT[i].value - e2eU[i].value, e2eT[i].unit})
	}
	printMetrics(bw, "per-layer (traced pass)", report)
	top, topS := "", -1.0
	for _, m := range report {
		if strings.HasSuffix(m.name, ".self_s") && m.value > topS {
			top, topS = strings.TrimSuffix(m.name, ".self_s"), m.value
		}
	}
	fmt.Fprintf(bw, "largest self time: %s (%.3f s)\n", top, topS)
	fmt.Fprintf(bw, "spans: %d written to %s\n", nspans, path)
	return []*pass{tps, plain}, report, nil
}

// sampleRSS samples the resident set every 10 ms until the returned
// function is called, which returns the highest sample.
func sampleRSS() (stop func() float64) {
	done, peak := make(chan struct{}), make(chan float64)
	go func() {
		hi := 0.0
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			hi = max(hi, rssMiB())
			select {
			case <-done:
				peak <- hi
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

func printMetrics(w *bufio.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// printSamples reports the sample counts and the p90 and p99 latencies.
// They are printed, not bounded: on a shared 2-CPU host their run-to-run
// spread is wider than any bound the benchmark may set (see README.md).
func printSamples(w *bufio.Writer, ps *pass) {
	wl, rl := ps.latencies()
	fmt.Fprintf(w, "samples: %d epochs, %d writes (%d beyond p99), %d reads (%d beyond p99)\n",
		len(ps.epochs), len(wl), beyond(len(wl), 0.99), len(rl), beyond(len(rl), 0.99))
	sw, sr := sortedCopy(wl), sortedCopy(rl)
	for _, q := range []struct {
		name string
		v    []int64
		q    float64
	}{{"write_p90_us", sw, 0.90}, {"write_p99_us", sw, 0.99}, {"read_p90_us", sr, 0.90}, {"read_p99_us", sr, 0.99}} {
		fmt.Fprintf(w, "  %-28s %14.4f us\n", q.name, float64(quantile(q.v, q.q))/1e3)
	}
}

// --- one pass: a sequence of epochs ---

// pass is a sequence of epochs, each on a freshly assembled stack. An
// epoch is a bounded unit of work, so memory stays bounded however long
// the run, and set-up is sampled once per epoch.
type pass struct {
	epochs  []*epoch
	setups  []float64
	snaps   []layerSnap
	rt      [len(rtNames)]float64 // runtime/metrics deltas over the timed phases
	windows [][2]int64            // timed phases in tracer time (traced pass)
	rss     []float64             // each epoch's peak resident set, MiB
	err     error
}

// minSamples gives a p99 with at least minTail samples beyond it.
const minSamples = 100 * minTail

// runPass runs epochs until the timed phases add up to budget (and, with
// needSamples, until both latency distributions support a p99), or
// exactly fixedEpochs epochs when that is set.
func runPass(ctx context.Context, w workload, p params, seed uint64, budget time.Duration, fixedEpochs int, needSamples bool, tr *tracer, dir string) (*pass, error) {
	ps := &pass{}
	pat := newPattern(seed, mib)
	var spent time.Duration
	start := time.Now()
	for e := 0; ; e++ {
		if fixedEpochs > 0 {
			if e >= fixedEpochs {
				break
			}
		} else if e > 0 {
			wl, rl := ps.latencies()
			enough := !needSamples || (len(wl) >= minSamples && len(rl) >= minSamples)
			if (spent >= budget && enough) || time.Since(start) > 4*budget {
				break
			}
		}
		ep := &epoch{seed: blockKey(seed, uint64(e)), p: p, pat: pat}
		depth := w.depth(p)
		for c := 0; c < conns; c++ {
			for k := 0; k < depth; k++ {
				ep.streams = append(ep.streams, &stream{conn: e*conns + c, tr: tr})
			}
		}
		runtime.GC()

		stopRSS := sampleRSS()
		t0 := time.Now()
		st, err := openStack(ctx, w.spec(p), filepath.Join(dir, fmt.Sprintf("stack-%d", e)), conns, tr, e*conns)
		if err != nil {
			return nil, fmt.Errorf("%s: assembling the stack: %w", w.name, err)
		}
		ep.st = st
		err = w.setup(ctx, ep)
		setup := time.Since(t0)
		if err == nil {
			r0 := readRuntime()
			err = w.run(ctx, ep)
			r1 := readRuntime()
			for i := range ps.rt {
				ps.rt[i] += r1[i] - r0[i]
			}
		}
		ep.writeRates = writeRates(ep.streams, w.writeSlice)
		ps.snaps = append(ps.snaps, snapshotLayers(st))
		st.close()
		ps.rss = append(ps.rss, stopRSS())
		// Flush the file systems outside the timed phases, so an epoch
		// does not share the disk with the writeback and journal
		// commits of the files the previous one removed.
		syscall.Sync()
		ep.st, ep.files = nil, nil // the epoch's tallies outlive its stack
		ps.epochs = append(ps.epochs, ep)
		ps.setups = append(ps.setups, setup.Seconds())
		if tr != nil {
			ps.windows = append(ps.windows, [2]int64{tr.since(ep.timedStart), tr.since(ep.timedEnd)})
		}
		spent += ep.timedEnd.Sub(ep.timedStart)
		if _, _, mismatch, _ := ps.tally(); err != nil || mismatch != "" {
			ps.err = err
			break
		}
	}
	return ps, nil
}

func (ps *pass) tally() (attempted, failed int64, mismatch string, err error) {
	err = ps.err
	for _, ep := range ps.epochs {
		for _, s := range ep.streams {
			attempted += s.attempted
			failed += s.failed
			if mismatch == "" {
				mismatch = s.mismatch
			}
			if err == nil {
				err = s.err
			}
		}
	}
	return attempted, failed, mismatch, err
}

func (ps *pass) latencies() (wl, rl []int64) {
	for _, ep := range ps.epochs {
		for _, s := range ep.streams {
			wl = append(wl, s.writeLat...)
			rl = append(rl, s.readLat...)
		}
	}
	return wl, rl
}

// writeRates returns an epoch's write_mib_s samples. With slice 0 that is
// one rate: the bytes acknowledged ÷ (first write issued → last write
// acked). Otherwise the timed writes, merged over the streams in ack
// order, are cut into consecutive slices of slice acknowledged bytes (the
// remainder joins the last slice; an epoch with less is one slice), and a
// slice's rate is its bytes ÷ the time from the previous slice's last ack
// (for the first slice, from the first write issued) to its own last ack.
// A stall of the shared host then falls inside one slice and moves the
// median over the run's slices by one rank. The acks are released.
func writeRates(ss []*stream, slice int64) []float64 {
	var acks []ack
	var start time.Time
	for _, s := range ss {
		acks = append(acks, s.acks...)
		if !s.firstWrite.IsZero() && (start.IsZero() || s.firstWrite.Before(start)) {
			start = s.firstWrite
		}
		s.acks = nil
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].at.Before(acks[j].at) })
	var rest int64
	for _, a := range acks {
		rest += a.n
	}
	var rates []float64
	var n int64
	for i, a := range acks {
		n += a.n
		rest -= a.n
		if (slice > 0 && n >= slice && rest >= slice) || i == len(acks)-1 {
			rates = append(rates, ratio(float64(n)/mib, a.at.Sub(start).Seconds()))
			start, n = a.at, 0
		}
	}
	return rates
}

// endToEnd derives the user-visible metrics. Each rate is computed per
// epoch (write_mib_s per slice on spill-stripe, see writeRates) and the
// median over the run is reported, so a stall of the shared host during
// one epoch moves the result by at most one rank; peak_rss_mib is the
// median of the epochs' peaks, for the same reason. Latencies are pooled
// over all epochs.
func (ps *pass) endToEnd() []metric {
	var writeR, durableR, readR, opsR []float64
	for _, ep := range ps.epochs {
		var wbytes int64
		var first, lastS time.Time
		var readMiBs float64
		for _, s := range ep.streams {
			wbytes += s.writeBytes
			if !s.firstWrite.IsZero() && (first.IsZero() || s.firstWrite.Before(first)) {
				first = s.firstWrite
			}
			if s.lastSync.After(lastS) {
				lastS = s.lastSync
			}
			// Readback bandwidth: each stream's bytes over the time it
			// spent in read calls (comparing the bytes is not timed),
			// summed over streams.
			readMiBs += ratio(float64(s.readBytes)/mib, s.readBusy.Seconds())
		}
		if first.IsZero() || lastS.IsZero() {
			continue // the epoch failed before its timed phase completed
		}
		writeR = append(writeR, ep.writeRates...)
		durableR = append(durableR, ratio(float64(wbytes)/mib, lastS.Sub(first).Seconds()))
		readR = append(readR, readMiBs)
		opsR = append(opsR, ratio(float64(ep.phaseOps), lastS.Sub(ep.timedStart).Seconds()))
	}
	wl, rl := ps.latencies()
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return []metric{
		{"write_mib_s", median(writeR), "MiB/s"},
		{"durable_mib_s", median(durableR), "MiB/s"},
		{"read_mib_s", median(readR), "MiB/s"},
		{"ops_s", median(opsR), "ops/s"},
		{"write_p50_us", us(quantile(sortedCopy(wl), 0.50)), "us"},
		{"write_p75_us", us(quantile(sortedCopy(wl), 0.75)), "us"},
		{"read_p50_us", us(quantile(sortedCopy(rl), 0.50)), "us"},
		{"read_p75_us", us(quantile(sortedCopy(rl), 0.75)), "us"},
		{"setup_s", median(ps.setups), "s"},
		{"peak_rss_mib", median(ps.rss), "MiB"},
	}
}

// --- per-layer metrics ---

// layerSnap is one epoch's server-side counters, read through the public
// Stats, BMLStats, SnapshotStats and Metrics surfaces.
type layerSnap struct {
	srv    core.ServerStats
	bml    core.BMLStats
	stage  map[string]telemetry.HistogramSnapshot
	batch  telemetry.HistogramSnapshot
	steals int64
	wal    wal.Stats
}

func snapshotLayers(st *stack) layerSnap {
	ls := layerSnap{srv: st.srv.Stats(), bml: st.srv.BMLStats(), stage: map[string]telemetry.HistogramSnapshot{}}
	snaps := st.srv.Metrics().Snapshot()
	if f := telemetry.Find(snaps, "iofwd_stage_latency_ns"); f != nil {
		for _, s := range f.Series {
			if s.Histogram != nil {
				ls.stage[s.Labels["stage"]] = *s.Histogram
			}
		}
	}
	if f := telemetry.Find(snaps, "iofwd_worker_batch_ops"); f != nil && len(f.Series) > 0 && f.Series[0].Histogram != nil {
		ls.batch = *f.Series[0].Histogram
	}
	if f := telemetry.Find(snaps, "iofwd_steals_total"); f != nil && len(f.Series) > 0 && f.Series[0].Value != nil {
		ls.steals = *f.Series[0].Value
	}
	if st.log != nil {
		ls.wal = st.log.SnapshotStats()
	}
	return ls
}

// perLayer derives the per-layer metrics of a traced pass from its spans
// (restricted to the timed phases), the server snapshots and the
// runtime/metrics deltas.
func (ps *pass) perLayer(tr *tracer, self []int64) []metric {
	in := func(at int64) bool {
		for _, w := range ps.windows {
			if at >= w[0] && at <= w[1] {
				return true
			}
		}
		return false
	}
	var clientOps, clientBusy, wireWrites, wireBytes int64
	var bwN, bwBusy, memberW, tierW int64
	var walLat, memberLat []int64
	var walBytes int64
	memberBusy := map[int16]int64{}
	var selfByLayer [numLayers]int64
	var wireWait int64 // transit: time requests and replies waited, not work
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.layer == layerWAL {
			walBytes += int64(s.n)
		}
		if !in(s.start) {
			continue
		}
		d := s.end - s.start
		if s.op == opTransit {
			wireWait += self[i]
			continue
		}
		selfByLayer[s.layer] += self[i]
		switch s.layer {
		case layerClient:
			clientOps++
			clientBusy += d
		case layerWire:
			if s.op == opWrite {
				wireWrites++
				wireBytes += int64(s.n)
			}
		case layerBackend:
			if s.op == opWrite {
				bwN++
				bwBusy += d
				tierW++
			}
		case layerWAL:
			walLat = append(walLat, d)
		case layerStripe:
			memberBusy[s.conn] += d
			if s.op == opWrite {
				memberW++
				memberLat = append(memberLat, d)
			}
		}
	}
	var windowNs int64
	for _, w := range ps.windows {
		windowNs += w[1] - w[0]
	}
	var busyMax, busySum int64
	for _, b := range memberBusy {
		busySum += b
		busyMax = max(busyMax, b)
	}
	skew := 0.0
	if len(memberBusy) > 0 {
		skew = ratio(float64(busyMax), float64(busySum)/float64(len(memberBusy)))
	}

	var ops, stalls, timeouts, fresh, allocs, spilled, writes, walSyncs, compacted, steals uint64
	var peak int64
	var batchSum, batchCount float64
	var recv, reply, queue, queue99 []float64
	for _, ls := range ps.snaps {
		ops += ls.srv.Ops
		stalls += ls.bml.Stalls
		timeouts += ls.bml.Timeouts
		fresh += ls.bml.Fresh
		allocs += ls.bml.Allocs
		peak = max(peak, ls.bml.Peak)
		spilled += ls.srv.Spilled
		writes += ls.srv.StagedWrites + ls.srv.Spilled + ls.srv.Degraded
		walSyncs += ls.wal.Syncs
		compacted += ls.wal.CompactedBytes
		steals += uint64(ls.steals)
		batchSum += float64(ls.batch.Sum)
		batchCount += float64(ls.batch.Count)
		recv = append(recv, float64(ls.stage["recv"].P50)/1e3)
		reply = append(reply, float64(ls.stage["reply"].P50)/1e3)
		queue = append(queue, float64(ls.stage["queue"].P50)/1e3)
		queue99 = append(queue99, float64(ls.stage["queue"].P99)/1e3)
	}
	walLat, memberLat = sortedCopy(walLat), sortedCopy(memberLat)
	drains := sortedCopy(tr.drains)
	fops := float64(clientOps)
	m := []metric{
		{"backend.write_us_mean", ratio(float64(bwBusy)/1e3, float64(bwN)), "us"},
		{"backend.write_busy_s", float64(bwBusy) / 1e9, "s"},
		{"runtime.alloc_mib_per_op", ratio(ps.rt[rtAllocs]/mib, fops), "MiB"},
		{"runtime.gc_cpu_share", ratio(ps.rt[rtGC], ps.rt[rtTotal]-ps.rt[rtIdle]), "ratio"},
		{"wire.conn_writes_per_op", ratio(float64(wireWrites), fops), "count"},
		{"wire.bytes_per_op", ratio(float64(wireBytes), fops), "B"},
		{"server.recv_us_p50", median(recv), "us"},
		{"server.reply_us_p50", median(reply), "us"},
		{"client.inflight_mean", ratio(float64(clientBusy), float64(windowNs)*float64(conns)), "count"},
		{"server.queue_us_p50", median(queue), "us"},
		{"server.queue_us_p99", median(queue99), "us"},
		{"sched.batch_ops_mean", ratio(batchSum, batchCount), "count"},
		{"sched.steals", float64(steals), "count"},
		{"bml.stalls_per_op", ratio(float64(stalls), float64(ops)), "ratio"},
		{"bml.timeouts_per_op", ratio(float64(timeouts), float64(ops)), "ratio"},
		{"bml.fresh_ratio", ratio(float64(fresh), float64(allocs)), "ratio"},
		{"bml.peak_mib", float64(peak) / mib, "MiB"},
		{"wal.append_us_p50", float64(quantile(walLat, 0.50)) / 1e3, "us"},
		{"wal.append_us_p99", float64(quantile(walLat, 0.99)) / 1e3, "us"},
		{"wal.fsyncs_per_mib", ratio(float64(walSyncs), float64(walBytes)/mib), "1/MiB"},
		{"wal.spill_share", ratio(float64(spilled), float64(writes)), "ratio"},
		{"wal.ack_to_drain_ms_p50", float64(quantile(drains, 0.50)) / 1e6, "ms"},
		{"wal.compacted_ratio", ratio(float64(compacted), float64(walBytes)), "ratio"},
		{"stripe.member_writes_per_op", ratio(float64(memberW), float64(tierW)), "count"},
		{"stripe.member_write_us_p50", float64(quantile(memberLat, 0.50)) / 1e3, "us"},
		{"stripe.member_busy_skew", skew, "ratio"},
	}
	for l := layer(0); l < numLayers; l++ {
		m = append(m, metric{layerNames[l] + ".self_s", float64(selfByLayer[l]) / 1e9, "s"})
	}
	return append(m, metric{"wire.wait_s", float64(wireWait) / 1e9, "s"})
}

// --- runtime and environment ---

const (
	rtAllocs = iota
	rtGC
	rtTotal
	rtIdle
)

var rtNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() [len(rtNames)]float64 {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out [len(rtNames)]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it is unreadable).
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i == 7 {
			steal = n
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
	}
	return steal, total
}

// rssMiB reads the current resident set (VmRSS in /proc/self/status) in
// MiB.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func provenance(w workload, p params, seed uint64, budget time.Duration, traced bool, dir string) map[string]any {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if dirty == "true" {
				commit += "+modified"
			}
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	prov := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    budget.Seconds(),
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"conns":      conns,
		"cpu":        cpuModel(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"go":         runtime.Version(),
		"commit":     commit,
		"workdir_fs": fsType(dir),
		"network":    "client and server share one process; every request and reply crossed the host loopback (TCP 127.0.0.1)",
	}
	if traced {
		prov["traced_epochs"] = w.traced(p)
	}
	switch w.name {
	case "ckpt-stream":
		prov["shape"] = fmt.Sprintf("%d steps x %d MiB files per conn per epoch, 1 MiB cursor writes; async, 4 workers, 256 MiB BML, mem backend", p.ckptSteps, p.ckptFileMiB)
	case "smallop-mix":
		prov["shape"] = fmt.Sprintf("working set %d x 4 KiB = %d MiB per conn (%d MiB total), %d ops in flight per conn, %d ops per stream per epoch, %d%% write / %d%% read / %d%% stat (assumed shares); async, 4 workers, 256 MiB BML, mem backend",
			p.mixBlocks, p.mixBlocks*smallOp/mib, conns*p.mixBlocks*smallOp/mib, p.mixDepth, p.mixOps, mixWritePct, mixReadPct, 100-mixWritePct-mixReadPct)
	case "spill-stripe":
		prov["shape"] = fmt.Sprintf("%d x 64 KiB blocks of one shared file per epoch; 1 MiB BML, 2 ms admission timeout, WAL sync=interval, stripe tier of 4 file members (R=2, 64 KiB stripes) each slowed by %v per op", p.spillBlocks, p.memberOpCost)
		prov["wal_fs"] = prov["workdir_fs"]
		prov["member_fs"] = prov["workdir_fs"]
	}
	return prov
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
