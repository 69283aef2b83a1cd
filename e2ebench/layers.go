package main

// The traced run. It runs the workload end to end four times for a quarter
// of the run length each, untraced, traced, traced, untraced, and prints the
// difference as the tracing overhead. Then it times calls into each layer's
// public functions on the same seed's inputs, one span per layer pass with
// the pass's operation count, and reports the per-layer metrics. Spans are
// kept in memory and written to <work>/traces/ when the run ends.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"leaksig/internal/ahocorasick"
	"leaksig/internal/capture"
	"leaksig/internal/cluster"
	"leaksig/internal/core"
	"leaksig/internal/detect"
	"leaksig/internal/distance"
	"leaksig/internal/engine"
	"leaksig/internal/flowcontrol"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// layerRepeats is how many times the cheap per-packet passes run over the
// trace; the reported figure is the median pass.
const layerRepeats = 3

func tracedRun(e *env, w workload) (result, error) {
	log := newSpanLog()
	root := log.begin("traced-run." + w.name)
	top := log.under(root)
	quarter := e.seconds / 4
	if quarter < time.Second {
		quarter = time.Second
	}
	// Untraced, traced, traced, untraced: the order cancels a steady drift
	// in host speed out of the overhead estimate.
	var plain, traced []*e2e
	for i, withSpans := range []bool{false, true, true, false} {
		run := *e
		run.seconds = quarter
		name := w.name + " untraced"
		sp := top.begin(fmt.Sprintf("e2e.%d", i))
		if withSpans {
			run.spans = log.under(sp)
			name = w.name + " traced"
		}
		r, err := w.run(&run)
		if err != nil {
			return result{}, err
		}
		top.end(sp, r.completedOp)
		r.result(name)
		if withSpans {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	all := append(append([]*e2e(nil), plain...), traced...)
	mean := func(rs []*e2e) float64 { return (rs[0].throughput + rs[1].throughput) / 2 }
	fmt.Fprintf(os.Stderr, "%s: tracing overhead: throughput %.1f/s untraced, %.1f/s traced (%+.1f%%)\n",
		w.name, mean(plain), mean(traced), 100*(mean(traced)-mean(plain))/mean(plain))

	layers := top.begin("layers")
	lm, err := measureLayers(e, log.under(layers))
	if err != nil {
		return result{}, err
	}
	top.end(layers, int64(len(lm.metrics)))
	log.end(root, 0)
	cpu := (plain[0].cpuUSPerOp + plain[1].cpuUSPerOp) / 2
	switch w.name {
	case "pipe-paper":
		printBreakdown(w.name, lm, lm.paperMatchNS, cpu)
	case "pipe-10k":
		printBreakdown(w.name, lm, lm.metrics["detect.match_ns"].Value, cpu)
	}

	dir := filepath.Join(e.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := log.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	res := result{Correct: true, Metrics: lm.metrics}
	for _, r := range all {
		res.Correct = res.Correct && len(r.problems) == 0
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	return res, nil
}

// printBreakdown sets the per-layer costs of one packet's trip through
// leakstream beside the daemon's measured CPU per packet.
func printBreakdown(name string, lm *layerMetrics, matchNS, cpuUS float64) {
	parts := []struct {
		name string
		ns   float64
	}{
		{"decode", lm.metrics["httpmodel.decode_ns"].Value},
		{"validate", lm.metrics["httpmodel.validate_ns"].Value},
		{"hop", lm.metrics["engine.hop_ns"].Value},
		{"match", matchNS},
		{"encode", lm.metrics["leakstream.encode_ns"].Value},
	}
	sum := 0.0
	var b strings.Builder
	for _, p := range parts {
		sum += p.ns
		fmt.Fprintf(&b, " %s %.0fns", p.name, p.ns)
	}
	fmt.Fprintf(os.Stderr, "%s: per-packet layer costs sum %.2fus (%s) vs daemon cpu_us_per_op %.2fus; unaccounted %.1f%%\n",
		name, sum/1000, strings.TrimSpace(b.String()), cpuUS, 100*(cpuUS-sum/1000)/cpuUS)
}

type layerMetrics struct {
	metrics      map[string]metric
	paperMatchNS float64 // detect.MatchInto on the paper-scale set
}

func (lm *layerMetrics) set(name string, v float64, unit string) {
	lm.metrics[name] = metric{v, unit}
}

// pass times fn over n operations, repeated reps times inside one span per
// repetition, and returns the median nanoseconds and allocations per
// operation.
func pass(log *spanLog, name string, n, reps int, fn func()) (ns, allocs float64) {
	var nsv, allocv []float64
	var ms runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		sp := log.begin(name)
		fn()
		log.end(sp, int64(n))
		d := log.duration(sp)
		runtime.ReadMemStats(&ms)
		nsv = append(nsv, float64(d.Nanoseconds())/float64(n))
		allocv = append(allocv, float64(ms.Mallocs-m0)/float64(n))
	}
	return median(nsv), median(allocv)
}

func measureLayers(e *env, log *spanLog) (*layerMetrics, error) {
	in := e.in
	if err := in.loadPaperSet(); err != nil {
		return nil, err
	}
	v1, v2, _, err := in.bigSets()
	if err != nil {
		return nil, err
	}
	lm := &layerMetrics{metrics: make(map[string]metric)}
	trace := in.packets()
	n := len(trace)

	// capture: loading the trace file.
	var loaded *capture.Set
	sp := log.begin("capture.LoadJSONL")
	loaded, err = capture.LoadJSONL(in.tracePath)
	log.end(sp, int64(n))
	if err != nil {
		return nil, err
	}
	if loaded.Len() != n {
		return nil, fmt.Errorf("capture.LoadJSONL read %d packets, want %d", loaded.Len(), n)
	}
	lm.set("capture.load_s", log.duration(sp).Seconds(), "s")

	// httpmodel: NDJSON decode and validation, as leakstream does per line.
	rest, err := ndjsonLines(trace)
	if err != nil {
		return nil, err
	}
	lines := make([][]byte, n)
	for i, r := range rest {
		lines[i] = append(strconv.AppendInt([]byte(`{"id":`), trace[i].ID, 10), r...)
	}
	decoded := make([]*httpmodel.Packet, n)
	ns, allocs := pass(log, "httpmodel.decode", n, layerRepeats, func() {
		for i, l := range lines {
			p := new(httpmodel.Packet)
			if err := json.Unmarshal(l, p); err != nil {
				panic(err) // the lines were marshalled from these packets
			}
			decoded[i] = p
		}
	})
	lm.set("httpmodel.decode_ns", ns, "ns")
	lm.set("httpmodel.decode_allocs", allocs, "allocs")
	ns, _ = pass(log, "httpmodel.validate", n, layerRepeats, func() {
		for _, p := range decoded {
			if p.Validate() != nil {
				panic("generated packet failed validation")
			}
		}
	})
	lm.set("httpmodel.validate_ns", ns, "ns")
	var mask httpmodel.ViewMask
	for _, s := range v1.Signatures {
		mask |= httpmodel.ViewMaskOf(s.Views)
	}
	var vs httpmodel.ViewScratch
	ns, _ = pass(log, "httpmodel.views", n, layerRepeats, func() {
		for _, p := range trace {
			p.VisitContentViews(nopVisitor{}, mask, &vs)
		}
	})
	lm.set("httpmodel.views_ns", ns, "ns")

	// ahocorasick: the dense automaton over the 10k set's token union.
	var toks [][]byte
	seenTok := make(map[string]bool)
	for _, s := range v1.Signatures {
		for _, t := range s.Tokens {
			if !seenTok[t] {
				seenTok[t] = true
				toks = append(toks, []byte(t))
			}
		}
	}
	ac := ahocorasick.Compile(toks)
	occ := make([]uint64, ac.BitsetWords())
	ns, _ = pass(log, "ahocorasick.scan", n, layerRepeats, func() {
		for _, p := range trace {
			clear(occ)
			st := ac.ScanString(0, p.Method, occ)
			st = ac.ScanString(st, " ", occ)
			st = ac.ScanString(st, p.Path, occ)
			st = ac.ScanString(st, " ", occ)
			ac.ScanString(st, p.Proto, occ)
			st = 0
			first := true
			for _, h := range p.Headers {
				if strings.EqualFold(h.Name, "Cookie") {
					if !first {
						st = ac.ScanString(st, "; ", occ)
					}
					st = ac.ScanString(st, h.Value, occ)
					first = false
				}
			}
			ac.ScanBytes(0, p.Body, occ)
		}
	})
	lm.set("ahocorasick.scan_ns", ns, "ns")

	// detect: compile and match the 10k set; match the paper set too.
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	sp = log.begin("detect.NewEngine")
	eng := detect.NewEngine(v1)
	log.end(sp, int64(v1.Len()))
	runtime.GC()
	runtime.ReadMemStats(&msAfter)
	lm.set("detect.compile_ms", float64(log.duration(sp).Microseconds())/1000, "ms")
	lm.set("detect.compiled_mb", (float64(msAfter.HeapAlloc)-float64(msBefore.HeapAlloc))/(1<<20), "MB")
	sc := eng.NewScratch()
	ns, allocs = pass(log, "detect.MatchInto", n, layerRepeats, func() {
		for _, p := range trace {
			eng.MatchInto(p, sc)
		}
	})
	runtime.KeepAlive(eng)
	lm.set("detect.match_ns", ns, "ns")
	lm.set("detect.match_allocs", allocs, "allocs")
	lm.set("detect.resolve_ns", ns-lm.metrics["ahocorasick.scan_ns"].Value-lm.metrics["httpmodel.views_ns"].Value, "ns")
	paperEng := detect.NewEngine(in.paper)
	psc := paperEng.NewScratch()
	lm.paperMatchNS, _ = pass(log, "detect.MatchInto.paper", n, layerRepeats, func() {
		for _, p := range trace {
			paperEng.MatchInto(p, psc)
		}
	})

	// leakstream: the verdict line schema through json.Encoder.
	type verdictLine struct {
		ID        int64  `json:"id"`
		App       string `json:"app,omitempty"`
		Tenant    string `json:"tenant,omitempty"`
		Host      string `json:"host"`
		Leak      bool   `json:"leak"`
		Matched   []int  `json:"matched,omitempty"`
		Version   int64  `json:"version"`
		LatencyUS int64  `json:"latency_us,omitempty"`
		Trace     string `json:"trace,omitempty"`
	}
	matched := make([][]int, n)
	for i, p := range trace {
		matched[i] = append([]int(nil), paperEng.MatchInto(p, psc)...)
	}
	bw := bufio.NewWriter(io.Discard)
	enc := json.NewEncoder(bw)
	ns, _ = pass(log, "leakstream.encode", n, layerRepeats, func() {
		for i, p := range trace {
			enc.Encode(verdictLine{ID: p.ID, App: p.App, Host: p.Host, Leak: len(matched[i]) > 0, Matched: matched[i], Version: 1})
		}
		bw.Flush()
	})
	lm.set("leakstream.encode_ns", ns, "ns")

	// engine: the sharded streaming engine over the trace.
	cs := capture.New(trace)
	shards := engine.Config{}.ShardCount()
	ns, allocs = pass(log, "engine.MatchSet", n, layerRepeats, func() {
		engine.MatchSet(in.paper, cs, engine.Config{Shards: shards})
	})
	lm.set("engine.pkt_ns", ns, "ns")
	lm.set("engine.allocs", allocs, "allocs")
	var cpus []float64
	for r := 0; r < layerRepeats; r++ {
		c0 := selfCPU()
		sp := log.begin("engine.MatchSet.shards1")
		engine.MatchSet(in.paper, cs, engine.Config{Shards: 1})
		log.end(sp, int64(n))
		cpus = append(cpus, float64((selfCPU()-c0).Nanoseconds())/float64(n))
	}
	lm.set("engine.hop_ns", median(cpus)-lm.paperMatchNS, "ns")
	reload, err := measureReload(log, v1, v2, trace)
	if err != nil {
		return nil, err
	}
	lm.set("engine.reload_ms", reload, "ms")

	// sigserver: fetch of the 10k set, and publish to applied version.
	fetch, apply, err := measureSigserver(log, v1, v2)
	if err != nil {
		return nil, err
	}
	lm.set("sigserver.fetch_ms", fetch, "ms")
	lm.set("sigserver.publish_to_apply_ms", apply, "ms")

	// flowcontrol: Proxy.ServeHTTP with a stub transport.
	if err := measureProxy(log, lm, in); err != nil {
		return nil, err
	}

	// The generator: NCD, distance matrix, agglomeration, signatures.
	measureGenerator(log, lm, in)
	return lm, nil
}

// nopVisitor receives content chunks and does nothing with them, so a pass
// times the view decoding alone.
type nopVisitor struct{}

func (nopVisitor) Field()                   {}
func (nopVisitor) Text(string)              {}
func (nopVisitor) Bytes([]byte)             {}
func (nopVisitor) ViewField(httpmodel.View) {}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureReload times ReloadAsync on a 10k engine under load, until the new
// version is live.
func measureReload(log *spanLog, v1, v2 *signature.Set, trace []*httpmodel.Packet) (float64, error) {
	withVersion := func(s *signature.Set, v int64) *signature.Set {
		c := *s
		c.Version = v
		return &c
	}
	eng := engine.New(withVersion(v1, 1), engine.Config{Sink: engine.NewCountSink()})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			eng.Submit(trace[i%len(trace)])
		}
	}()
	var ms []float64
	for r := 0; r < layerRepeats; r++ {
		next := withVersion(v2, int64(r+2))
		if r%2 == 1 {
			next = withVersion(v1, int64(r+2))
		}
		sp := log.begin("engine.ReloadAsync")
		eng.ReloadAsync(next)
		deadline := time.Now().Add(60 * time.Second)
		for eng.Version() != next.Version {
			if time.Now().After(deadline) {
				close(stop)
				<-done
				eng.Close()
				return 0, fmt.Errorf("engine never applied version %d", next.Version)
			}
			time.Sleep(50 * time.Microsecond)
		}
		log.end(sp, 1)
		ms = append(ms, float64(log.duration(sp).Microseconds())/1000)
	}
	close(stop)
	<-done
	eng.Close()
	return median(ms), nil
}

// measureSigserver serves the 10k set from an in-process sigserver and
// times a fresh client's fetch and decode, then a watching engine's
// publish-to-applied latency.
func measureSigserver(log *spanLog, v1, v2 *signature.Set) (fetchMS, applyMS float64, err error) {
	srv := sigserver.New()
	srv.Publish(v1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	hs := &http.Server{Handler: srv.HandlerWithPublish("")}
	go hs.Serve(l)
	defer hs.Close()
	base := "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var fetches []float64
	for r := 0; r < layerRepeats; r++ {
		c := sigserver.NewClient(base, &http.Client{Transport: &http.Transport{}})
		sp := log.begin("sigserver.Client.Fetch")
		set, _, err := c.Fetch(ctx)
		log.end(sp, 1)
		if err != nil {
			return 0, 0, err
		}
		if set.Len() != v1.Len() {
			return 0, 0, fmt.Errorf("fetched %d signatures, want %d", set.Len(), v1.Len())
		}
		fetches = append(fetches, float64(log.duration(sp).Microseconds())/1000)
	}

	eng := engine.New(&signature.Set{}, engine.Config{Sink: engine.NewCountSink()})
	defer eng.Close()
	watcher := sigserver.NewClient(base, nil)
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		watcher.Watch(ctx, time.Second, func(s *signature.Set) { eng.ReloadAsync(s) })
	}()
	defer func() { cancel(); <-watchDone }()
	waitVersion := func(v int64) error {
		deadline := time.Now().Add(60 * time.Second)
		for eng.Version() != v {
			if time.Now().After(deadline) {
				return fmt.Errorf("engine never applied published version %d", v)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	_, cur := srv.Current()
	if err := waitVersion(cur); err != nil {
		return 0, 0, err
	}
	pub := sigserver.NewClient(base, nil)
	var applies []float64
	for r := 0; r < layerRepeats; r++ {
		next := v2
		if r%2 == 1 {
			next = v1
		}
		c := *next
		c.Version = 0 // auto-bump
		sp := log.begin("sigserver.publish_to_apply")
		v, err := pub.Publish(ctx, &c)
		if err != nil {
			return 0, 0, err
		}
		if err := waitVersion(v); err != nil {
			return 0, 0, err
		}
		log.end(sp, 1)
		applies = append(applies, float64(log.duration(sp).Microseconds())/1000)
	}
	return median(fetches), median(applies), nil
}

// stubTransport answers every forwarded request with an empty 200.
type stubTransport struct{}

func (stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody, Request: r}, nil
}

// discardWriter is a ResponseWriter that keeps nothing but its header map.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// measureProxy times Proxy.ServeHTTP on the proxy-http request mix (its
// trace requests; the large uploads are left out) and the heap a proxy
// still holds per vetted request after a GC.
func measureProxy(log *spanLog, lm *layerMetrics, in *inputs) error {
	ops, err := proxyMix(in)
	if err != nil {
		return err
	}
	var small []proxyOp
	for _, op := range ops {
		if !op.large {
			small = append(small, op)
		}
	}
	build := func(i int) *http.Request {
		op := small[i]
		r, err := http.NewRequest(op.method, op.url, strings.NewReader(string(op.body)))
		if err != nil {
			panic(err) // requestOp already parsed this URL
		}
		r.Header = op.header.Clone()
		r.RequestURI = op.url
		if len(op.body) == 0 {
			r.Body = http.NoBody
		}
		return r
	}
	// Retention, measured first so no other proxy's garbage is collected
	// in between: requests are built and dropped one at a time, so after a
	// GC the heap still held is what the proxy keeps per request.
	fresh := flowcontrol.NewProxy(in.paper, flowcontrol.BlockMatched(), stubTransport{})
	const retainPasses = 3
	var ms runtime.MemStats
	// Two collections: the first moves sync.Pool caches to their victim
	// lists, the second frees them, so pooled buffers count on neither side.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	h0 := ms.HeapAlloc
	sp := log.begin("flowcontrol.retained")
	for r := 0; r < retainPasses; r++ {
		for i := range small {
			fresh.ServeHTTP(&discardWriter{h: http.Header{}}, build(i))
		}
	}
	log.end(sp, int64(retainPasses*len(small)))
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(fresh)
	lm.set("flowcontrol.retained_bytes", (float64(ms.HeapAlloc)-float64(h0))/float64(retainPasses*len(small)), "bytes")

	proxy := flowcontrol.NewProxy(in.paper, flowcontrol.BlockMatched(), stubTransport{})
	var usv, allocv []float64
	for r := 0; r < layerRepeats; r++ {
		reqs := make([]*http.Request, len(small))
		for i := range small {
			reqs[i] = build(i)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		sp := log.begin("flowcontrol.ServeHTTP")
		for _, req := range reqs {
			proxy.ServeHTTP(&discardWriter{h: http.Header{}}, req)
		}
		log.end(sp, int64(len(reqs)))
		runtime.ReadMemStats(&ms)
		usv = append(usv, float64(log.duration(sp).Nanoseconds())/1000/float64(len(reqs)))
		allocv = append(allocv, float64(ms.Mallocs-m0)/float64(len(reqs)))
	}
	lm.set("flowcontrol.serve_us", median(usv), "us")
	lm.set("flowcontrol.serve_allocs", median(allocv), "allocs")
	return nil
}

// measureGenerator times the §IV pipeline's stages on the N=500 sample the
// generate workload draws: suspicious packets by the benchmark's labels,
// sampled with the workload seed.
func measureGenerator(log *spanLog, lm *layerMetrics, in *inputs) {
	lab := newLabeller(in.device)
	var suspicious []*httpmodel.Packet
	for _, p := range in.packets() {
		if lab.sensitive(newRefPacket(p)) {
			suspicious = append(suspicious, p)
		}
	}
	sample := capture.New(suspicious).Sample(rand.New(rand.NewSource(in.seed)), paperN).Packets
	pl := core.NewPipeline(core.Config{})

	// One content NCD pair, on pairs of sample packets.
	m := distance.New(distance.Config{})
	const pairs = 2000
	rng := rand.New(rand.NewSource(in.seed))
	pi := make([][2]int, pairs)
	for i := range pi {
		pi[i] = [2]int{rng.Intn(len(sample)), rng.Intn(len(sample))}
	}
	ns, _ := pass(log, "ncd.content_pair", pairs, layerRepeats, func() {
		for _, p := range pi {
			m.Content(sample[p[0]], sample[p[1]])
		}
	})
	lm.set("ncd.pair_us", ns/1000, "us")

	sp := log.begin("distance.NewMatrix")
	mx := distance.NewMatrix(pl.Metric(), sample)
	log.end(sp, int64(len(sample)*(len(sample)-1)/2))
	lm.set("distance.matrix_s", log.duration(sp).Seconds(), "s")

	sp = log.begin("cluster.Agglomerate")
	dend := cluster.Agglomerate(mx, cluster.GroupAverage)
	idx := dend.CutDistance(pl.Threshold())
	log.end(sp, int64(len(idx)))
	lm.set("cluster.agglomerate_ms", float64(log.duration(sp).Microseconds())/1000, "ms")

	groups := make([][]*httpmodel.Packet, len(idx))
	for i, members := range idx {
		for _, k := range members {
			groups[i] = append(groups[i], sample[k])
		}
	}
	sp = log.begin("signature.Generate")
	set := signature.Generate(groups, signature.Options{MinClusterSize: 2})
	log.end(sp, int64(set.Len()))
	lm.set("signature.generate_ms", float64(log.duration(sp).Microseconds())/1000, "ms")
}
