package main

// The proxy-http workload: flowproxy (paper-scale set, block policy) in
// front of an upstream sink inside the benchmark. flowproxy reaches the
// sink through HTTP_PROXY in its environment, so the trace's real hosts
// are kept and no DNS is needed. The load is a closed loop on nproc
// keep-alive connections replaying trace packets as HTTP requests, plus two
// uploads larger than 1 MiB in every round.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leaksig/internal/httpmodel"
)

const (
	proxyRoundSize = 2000 // trace requests per round
	// After every proxySetupEvery-th round an extra flowproxy is spawned
	// and stopped once ready, for setup_s, so the spawns are spread over
	// the run.
	proxySetupEvery = 4

	// The large uploads are 1 MiB, the body prefix flowproxy scans, plus
	// 64 KiB. The excess stays under the 256 KiB a Go server drains after
	// its handler returns, so a refused upload does not cost the client
	// its keep-alive connection.
	largeUploadSize  = 1 << 20
	largeUploadExtra = 64 << 10
	seqHeader        = "X-Bench-Seq"
	benignUploadHost = "bulk.upload.example"
	benignUploadPath = "/v1/blobs"
	benignUploadSeed = 20130408 // fixed: the benign upload does not depend on the workload seed
)

// proxyOp is one request of the mix and what the reference expects of it.
type proxyOp struct {
	method, url string
	header      http.Header
	body        []byte
	bodySum     uint64
	leak        bool // the reference flags it: expect 451
	large       bool
}

// upstreamRecord is what the sink saw of one request.
type upstreamRecord struct {
	method, url string
	bodySum     uint64
	bodyLen     int
}

// sink is the upstream every allowed request reaches.
type sink struct {
	mu   sync.Mutex
	seen map[int64]upstreamRecord
	srv  *http.Server
	addr string
}

func startSink() (*sink, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{seen: make(map[int64]upstreamRecord), addr: l.Addr().String()}
	s.srv = &http.Server{Handler: http.HandlerFunc(s.serve)}
	go s.srv.Serve(l)
	return s, nil
}

func (s *sink) serve(w http.ResponseWriter, r *http.Request) {
	h := fnv.New64a()
	n, _ := io.Copy(h, r.Body)
	seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
	if err != nil {
		seq = -1
	}
	s.mu.Lock()
	s.seen[seq] = upstreamRecord{method: r.Method, url: r.URL.String(), bodySum: h.Sum64(), bodyLen: int(n)}
	s.mu.Unlock()
	w.Write([]byte("ok"))
}

// take removes and returns the record of one request.
func (s *sink) take(seq int64) (upstreamRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.seen[seq]
	delete(s.seen, seq)
	return r, ok
}

func (s *sink) close() { s.srv.Close() }

func sum64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// proxyMix builds one round of requests: a seeded sample of trace packets
// and two large uploads, a benign one and one that leaks in its first
// bytes, each checked against the reference on its full content.
func proxyMix(in *inputs) ([]proxyOp, error) {
	rs := newRefSet(in.paper)
	rng := rand.New(rand.NewSource(in.seed*31 + 7))
	var ops []proxyOp
	var leakPost *httpmodel.Packet
	skipped := 0
	trace := in.packets()
	for _, i := range rng.Perm(len(trace)) {
		p := trace[i]
		if len(ops) < proxyRoundSize {
			op, ok := requestOp(p)
			if !ok {
				skipped++
				continue
			}
			op.leak = len(rs.match(newRefPacket(p))) > 0
			ops = append(ops, op)
		}
		if leakPost == nil && p.Method == "POST" && len(p.Body) > 0 && len(rs.match(newRefPacket(p))) > 0 {
			leakPost = p
		}
		if len(ops) == proxyRoundSize && leakPost != nil {
			break
		}
	}
	if leakPost == nil {
		return nil, errors.New("the trace has no leaking POST to build a large upload from")
	}

	// The benign upload: fixed bytes, the same for every seed.
	blob := make([]byte, largeUploadSize+largeUploadExtra)
	brng := rand.New(rand.NewSource(benignUploadSeed))
	for i := range blob {
		blob[i] = 'a' + byte(brng.Intn(26))
	}
	benign := &httpmodel.Packet{Method: "POST", Host: benignUploadHost, Path: benignUploadPath, Proto: "HTTP/1.1", Body: blob,
		Headers: []httpmodel.Header{{Name: "Content-Type", Value: "application/octet-stream"}}}
	// The leaking upload: a leaking trace POST, its body padded past 1 MiB.
	leaky := leakPost.Clone()
	leaky.Body = append(append(leaky.Body, "&pad="...), bytes.Repeat([]byte{'x'}, largeUploadSize+largeUploadExtra-len(leaky.Body))...)
	for _, p := range []*httpmodel.Packet{benign, leaky} {
		op, ok := requestOp(p)
		if !ok {
			return nil, fmt.Errorf("large upload to %s is not a valid request", p.Host)
		}
		op.large = true
		op.leak = len(rs.match(newRefPacket(p))) > 0
		ops = append(ops, op)
	}
	if ops[len(ops)-2].leak || !ops[len(ops)-1].leak {
		return nil, errors.New("large uploads: reference labels differ from their construction")
	}
	leaks := 0
	for _, op := range ops {
		if op.leak {
			leaks++
		}
	}
	fmt.Fprintf(os.Stderr, "proxy-http: round of %d requests: %d trace packets (%d skipped whose URL would not survive unchanged), 2 uploads of %d bytes; reference flags %d (%.1f%%)\n",
		len(ops), proxyRoundSize, skipped, largeUploadSize+largeUploadExtra, leaks, 100*float64(leaks)/float64(len(ops)))
	// Spread the two uploads into the round.
	n := len(ops)
	ops[n/3], ops[n-2] = ops[n-2], ops[n/3]
	ops[2*n/3], ops[n-1] = ops[n-1], ops[2*n/3]
	return ops, nil
}

// requestOp renders a packet as a proxied HTTP request. Packets whose
// request line would not survive the trip unchanged are skipped.
func requestOp(p *httpmodel.Packet) (proxyOp, bool) {
	raw := "http://" + p.Host + p.Path
	u, err := url.Parse(raw)
	if err != nil || u.RequestURI() != p.Path || u.Host != p.Host {
		return proxyOp{}, false
	}
	op := proxyOp{method: p.Method, url: u.String(), header: http.Header{}, body: p.Body, bodySum: sum64(p.Body)}
	for _, h := range p.Headers {
		switch strings.ToLower(h.Name) {
		case "host", "content-length", "connection", "transfer-encoding", "proxy-connection":
			continue
		}
		op.header.Add(h.Name, h.Value)
	}
	return op, true
}

// runProxy measures the proxy under the closed-loop mix.
func runProxy(e *env) (*e2e, error) {
	if err := e.in.loadPaperSet(); err != nil {
		return nil, err
	}
	ops, err := proxyMix(e.in)
	if err != nil {
		return nil, err
	}
	up, err := startSink()
	if err != nil {
		return nil, err
	}
	defer up.close()

	res := &e2e{}
	e.in.release()
	p, err := startProxy(e, up, ops)
	if err != nil {
		return nil, err
	}
	res.setup = append(res.setup, p.setup.Seconds())
	spawn := func() error {
		q, err := startProxy(e, up, ops)
		if err != nil {
			return err
		}
		res.setup = append(res.setup, q.setup.Seconds())
		return q.stop()
	}
	loopErr := proxyLoop(e, p, up, ops, res, spawn)
	stopErr := p.stop()
	if loopErr != nil {
		return nil, loopErr
	}
	if stopErr != nil {
		return nil, stopErr
	}
	res.cpuUSPerOp = float64(cpuTime(p.cmd).Microseconds()) / float64(res.completedOp)
	res.peakRSSMB = p.rssMB
	return res, nil
}

// proxyProc is a running flowproxy and the client that talks through it.
type proxyProc struct {
	cmd    *exec.Cmd
	stderr tailBuffer
	client *http.Client
	tr     *http.Transport
	setup  time.Duration
	hwm    *hwmWatch
	rssMB  float64 // peak resident set, known once stopped
}

func startProxy(e *env, up *sink, ops []proxyOp) (*proxyProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proxyProc{}
	p.cmd = command(e.bin("flowproxy"), "-addr", addr, "-sigs", e.in.paperPath, "-policy", "block")
	p.cmd.Env = append(proxyFreeEnv(), "HTTP_PROXY=http://"+up.addr)
	p.cmd.Stderr = &p.stderr
	p.cmd.Stdout = &p.stderr
	proxyURL, _ := url.Parse("http://" + addr)
	n := runtime.NumCPU()
	p.tr = &http.Transport{
		Proxy:               http.ProxyURL(proxyURL),
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	p.client = &http.Client{Transport: p.tr}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	p.hwm = watchHWM(p.cmd.Process.Pid)
	// Set-up ends at the first proxied response to a benign request.
	var probe proxyOp
	for _, op := range ops {
		if !op.leak && !op.large {
			probe = op
			break
		}
	}
	deadline := start.Add(30 * time.Second)
	for {
		status, _, err := p.do(probe, -1)
		if err == nil && status == http.StatusOK {
			p.setup = time.Since(start)
			up.take(-1)
			return p, nil
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("flowproxy never answered (last: %d %v)\n%s", status, err, p.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// proxyFreeEnv is the benchmark's environment without proxy settings (and
// without REQUEST_METHOD, under which Go ignores HTTP_PROXY).
func proxyFreeEnv() []string {
	var out []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch strings.ToUpper(k) {
		case "HTTP_PROXY", "HTTPS_PROXY", "NO_PROXY", "ALL_PROXY", "REQUEST_METHOD":
			continue
		}
		out = append(out, kv)
	}
	return out
}

func (p *proxyProc) stop() error {
	p.tr.CloseIdleConnections()
	p.rssMB = p.hwm.peakMB()
	if err := stopChild(p.cmd, 10*time.Second); err != nil {
		return fmt.Errorf("flowproxy: %v\n%s", err, p.stderr.String())
	}
	return nil
}

// do sends one request through the proxy and reads the whole response.
func (p *proxyProc) do(op proxyOp, seq int64) (int, time.Duration, error) {
	req, err := http.NewRequestWithContext(context.Background(), op.method, op.url, bytes.NewReader(op.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header = op.header.Clone()
	req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	if len(op.body) == 0 {
		req.Body = http.NoBody
	}
	start := time.Now()
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

// proxyRounds is the fixed number of rounds a run makes: three per second
// of run length, a little under what the proxy sustained on the 2-core
// reference host. Fixed work keeps runs comparable: the audit log the proxy
// keeps grows with every request, so its memory depends on the request
// count.
func proxyRounds(d time.Duration) int { return max(1, int(3*d.Seconds())) }

// proxyLoop runs whole rounds of the mix on nproc workers, checking every
// response, and calls between after every proxySetupEvery-th round.
// Throughput is completed responses over the rounds' summed time.
func proxyLoop(e *env, p *proxyProc, up *sink, ops []proxyOp, res *e2e, between func() error) error {
	workers := runtime.NumCPU()
	lat := make([][]float64, workers)
	var completed, failed atomic.Int64
	var mu sync.Mutex // guards firstErr and res.problems
	var firstErr error
	var busy time.Duration
	rounds := 0
	for rounds < proxyRounds(e.seconds) {
		roundStart := time.Now()
		var next atomic.Int64
		base := int64(rounds * len(ops))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(len(ops)) {
						return
					}
					op := ops[i]
					seq := base + i
					sp := e.spans.begin("proxy.request")
					status, d, err := p.do(op, seq)
					e.spans.end(sp, 1)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("request %s %s: %w\n%s", op.method, op.url, err, p.stderr.String())
						}
						mu.Unlock()
						return
					}
					completed.Add(1)
					lat[w] = append(lat[w], float64(d.Nanoseconds())/1e6)
					ok, isFault := judge(op, status, seq, up)
					if !ok {
						if isFault {
							failed.Add(1)
						} else {
							mu.Lock()
							res.fail("%s %s: status %d, reference leak=%v", op.method, op.url, status, op.leak)
							mu.Unlock()
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
		busy += time.Since(roundStart)
		rounds++
		if rounds%proxySetupEvery == 0 {
			if err := between(); err != nil {
				return err
			}
		}
	}
	res.attempted = int64(rounds * len(ops))
	res.completedOp = completed.Load()
	res.failed = failed.Load()
	res.throughput = float64(res.completedOp) / busy.Seconds()
	for _, l := range lat {
		res.latencyMS = append(res.latencyMS, l...)
	}
	return nil
}

// judge checks one response. A benign large upload whose body reaches the
// upstream cut short is a failed operation (the known 1 MiB truncation
// fault); any other mismatch, a leak that reaches the upstream above all,
// is incorrect.
func judge(op proxyOp, status int, seq int64, up *sink) (ok, fault bool) {
	rec, reached := up.take(seq)
	switch {
	case op.leak:
		return !reached && status == http.StatusUnavailableForLegalReasons, false
	case op.large && status == http.StatusRequestEntityTooLarge:
		return !reached, false
	case status != http.StatusOK || !reached:
		return false, false
	}
	if rec.method != op.method || rec.url != op.url {
		return false, false
	}
	if rec.bodySum != op.bodySum || rec.bodyLen != len(op.body) {
		return false, op.large && rec.bodyLen < len(op.body)
	}
	return true, false
}
