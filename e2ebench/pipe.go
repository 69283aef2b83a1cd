package main

// The pipe workloads: leakstream in pipe mode, NDJSON packets in on stdin,
// NDJSON verdicts out on stdout. The trace is replayed for the length of
// the run, each replayed line under a fresh ID, and every verdict is
// checked against the reference matcher for the version it reports.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

const (
	// Each measured round of a pipe workload is preceded by this many
	// extra spawns, for setup_s. Spreading them over the run rather than
	// bunching them at its start lets their median follow the host's speed
	// over the whole run. A pipe-paper spawn takes ~5 ms, a pipe-10k one
	// ~0.2 s (it fetches and compiles the 10k set).
	paperSetupSpawns = 15
	bigSetupSpawns   = 5

	bigCheckEvery = 8 // pipe-10k checks every 8th trace packet (plus every adversarial one)
	writeChunk    = 64 << 10

	// pipeRounds is how many leakstream processes a run measures, each
	// streaming for an equal share of the run length; figures are medians
	// or totals over them.
	pipeRounds = 3

	// loneProbes is how many single packets a measured round sends one at a
	// time, each after the previous verdict, before the bulk stream starts.
	loneProbes = 20
)

// expectation answers, for the packet at one stream index and the version a
// verdict reports, which signature IDs the reference matched (sorted), and
// whether this verdict is checked at all.
type expectation func(idx int, version int64) (ids []int, checked bool, known bool)

// pipeSpec describes one leakstream pipe-mode round.
type pipeSpec struct {
	args   []string
	lines  [][]byte // NDJSON line bodies after the leading {"id":
	expect expectation
	// ready reports whether a verdict under this version means the daemon
	// has its signature set live (its set-up is done).
	ready func(version int64) bool
	// static: the daemon loads its set before reading stdin, so a set-up
	// probe is one line and EOF, which makes the daemon flush at once.
	static bool
	midway func() error // run once half the measured packets are sent; may be nil
}

// pipeRound is what one leakstream process did.
type pipeRound struct {
	mu      sync.Mutex
	probeAt []time.Time // write time of each probe line, by ID-1

	sent, received int64
	bulk           int64     // verdicts for lines of the bulk stream
	first, last    time.Time // arrival of the first and last bulk verdicts
	setup          time.Duration
	lone           []float64 // lone-packet round trips, ms
	cpu            time.Duration
	rssMB          float64
}

// runPipeRound spawns leakstream, streams packets for dur after it is ready
// (dur = 0: probe lines until ready, then EOF), and checks every verdict.
func runPipeRound(e *env, spec pipeSpec, dur time.Duration, res *e2e) (*pipeRound, error) {
	cmd := command(e.bin("leakstream"), spec.args...)
	var stderr tailBuffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	hwm := watchHWM(cmd.Process.Pid)
	round := &pipeRound{}
	ready := make(chan struct{})
	lone := &loneWait{got: make(chan time.Time, 1)}
	var readyAt time.Time
	var bulkStart atomic.Int64 // sent count when the bulk stream began
	bulkStart.Store(math.MaxInt64)
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stdin.Close()
		writeErr = streamLines(e, spec, dur, stdin, ready, lone, &bulkStart, round)
	}()

	var seen bitset
	br := bufio.NewReaderSize(stdout, 1<<20)
	var batchSpan int
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			v, perr := parseVerdict(line)
			if perr != nil {
				res.fail("unparseable verdict %q: %v", line, perr)
				continue
			}
			round.received++
			if readyAt.IsZero() && spec.ready(v.version) {
				readyAt = now
				at := now
				if !spec.static {
					at = round.probeTime(v.id, now)
				}
				round.setup = at.Sub(start)
				close(ready)
			}
			if v.id == lone.id.Load() {
				lone.got <- now
			}
			if v.id > bulkStart.Load() {
				if round.bulk == 0 {
					round.first = now
				}
				round.last = now
				round.bulk++
			}
			if e.spans != nil && round.received%4096 == 1 {
				e.spans.end(batchSpan, 4096)
				batchSpan = e.spans.begin("pipe.verdicts")
			}
			checkVerdict(spec, v, &seen, res)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			cmd.Process.Kill()
			hwm.peakMB()
			wg.Wait()
			cmd.Wait()
			return nil, err
		}
	}
	e.spans.end(batchSpan, round.received%4096)
	round.rssMB = hwm.peakMB()
	if readyAt.IsZero() {
		close(ready)
	}
	wg.Wait()
	werr := cmd.Wait()
	if werr != nil {
		return nil, fmt.Errorf("leakstream: %v\n%s", werr, stderr.String())
	}
	if writeErr != nil {
		return nil, fmt.Errorf("writing packets: %v\n%s", writeErr, stderr.String())
	}
	if readyAt.IsZero() {
		return nil, fmt.Errorf("leakstream never became ready\n%s", stderr.String())
	}

	round.cpu = cpuTime(cmd)
	if round.received != round.sent {
		res.fail("sent %d packets, received %d verdicts", round.sent, round.received)
	}
	for id := int64(1); id <= round.sent; id++ {
		if !seen.has(id) {
			res.fail("no verdict for packet id %d", id)
			break
		}
	}
	return round, nil
}

func (r *pipeRound) probed(t time.Time) {
	r.mu.Lock()
	r.probeAt = append(r.probeAt, t)
	r.mu.Unlock()
}

// probeTime is when the probe line with this ID was written. Against a
// watched server, the first probe to get a verdict under the live set marks
// the end of set-up; timing its write rather than its verdict's arrival
// keeps the daemon's 25 ms verdict flush interval out of setup_s. (With a
// static set the probe is followed by EOF, which flushes at once, so there
// the arrival is timed.) Lines that are not probes report arrival.
func (r *pipeRound) probeTime(id int64, arrival time.Time) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id >= 1 && id <= int64(len(r.probeAt)) {
		return r.probeAt[id-1]
	}
	return arrival
}

// loneWait hands the reader's arrival time of one awaited verdict to the
// writer.
type loneWait struct {
	id  atomic.Int64
	got chan time.Time
}

// streamLines writes probe lines one at a time until the daemon reports
// ready. For a measured round (dur > 0) it then sends loneProbes single
// lines, each after the previous one's verdict, and then lines in chunks
// for dur, calling midway once half of dur has passed.
func streamLines(e *env, spec pipeSpec, dur time.Duration, w io.Writer, ready <-chan struct{}, lone *loneWait, bulkStart *atomic.Int64, round *pipeRound) error {
	next := 0
	var buf []byte
	appendLine := func() {
		round.sent++
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, round.sent, 10)
		buf = append(buf, spec.lines[next]...)
		next = (next + 1) % len(spec.lines)
	}
	probe := time.NewTicker(2 * time.Millisecond)
	defer probe.Stop()
	giveUp := time.After(60 * time.Second)
probing:
	for {
		buf = buf[:0]
		appendLine()
		round.probed(time.Now())
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if dur == 0 && spec.static {
			return nil
		}
		select {
		case <-ready:
			break probing
		case <-giveUp:
			return errors.New("no verdict under a live signature set within 60s")
		case <-probe.C:
		}
	}
	if dur == 0 {
		return nil
	}
	for i := 0; i < loneProbes; i++ {
		buf = buf[:0]
		appendLine()
		lone.id.Store(round.sent)
		t0 := time.Now()
		if _, err := w.Write(buf); err != nil {
			return err
		}
		select {
		case t1 := <-lone.got:
			round.lone = append(round.lone, float64(t1.Sub(t0).Nanoseconds())/1e6)
		case <-time.After(10 * time.Second):
			return errors.New("no verdict for a lone packet within 10s")
		}
	}
	bulkStart.Store(round.sent)
	t0 := time.Now()
	half := false
	for time.Since(t0) < dur {
		if !half && spec.midway != nil && time.Since(t0) >= dur/2 {
			half = true
			if err := spec.midway(); err != nil {
				return err
			}
		}
		sp := e.spans.begin("pipe.write")
		buf = buf[:0]
		n := round.sent
		for len(buf) < writeChunk {
			appendLine()
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		e.spans.end(sp, round.sent-n)
	}
	return nil
}

// verdict is the part of a verdict line the benchmark checks.
type verdict struct {
	id      int64
	version int64
	matched []int
}

// parseVerdict reads the fields leakstream writes after the app and host
// strings ("leak", "matched", "version"), falling back to encoding/json for
// anything unexpected.
func parseVerdict(line []byte) (verdict, error) {
	var v verdict
	const head = `{"id":`
	i := bytes.LastIndex(line, []byte(`"leak":`))
	if bytes.HasPrefix(line, []byte(head)) && i > 0 {
		id, rest, ok1 := cutInt(line[len(head):])
		tail := line[i:]
		var ok2 = ok1 && rest != nil
		if j := bytes.Index(tail, []byte(`"matched":[`)); ok2 && j >= 0 {
			t := tail[j+len(`"matched":[`):]
			for ok2 && len(t) > 0 && t[0] != ']' {
				var m int64
				m, t, ok2 = cutInt(t)
				v.matched = append(v.matched, int(m))
				if ok2 && len(t) > 0 && t[0] == ',' {
					t = t[1:]
				}
			}
		}
		if j := bytes.Index(tail, []byte(`"version":`)); ok2 && j >= 0 {
			ver, _, ok3 := cutInt(tail[j+len(`"version":`):])
			if ok3 {
				v.id, v.version = id, ver
				return v, nil
			}
		}
	}
	var full struct {
		ID      *int64 `json:"id"`
		Matched []int  `json:"matched"`
		Version int64  `json:"version"`
	}
	if err := json.Unmarshal(line, &full); err != nil {
		return v, err
	}
	if full.ID == nil {
		return v, errors.New("verdict without id")
	}
	return verdict{id: *full.ID, version: full.Version, matched: full.Matched}, nil
}

func cutInt(b []byte) (int64, []byte, bool) {
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	if j == 0 {
		return 0, nil, false
	}
	n, err := strconv.ParseInt(string(b[:j]), 10, 64)
	return n, b[j:], err == nil
}

// bitset records which packet IDs got a verdict.
type bitset []uint64

func (b *bitset) has(i int64) bool {
	w := int(i / 64)
	return w < len(*b) && (*b)[w]&(1<<(i%64)) != 0
}

func (b *bitset) set(i int64) {
	w := int(i / 64)
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (i % 64)
}

func checkVerdict(spec pipeSpec, v verdict, seen *bitset, res *e2e) {
	if v.id < 1 || seen.has(v.id) {
		res.fail("verdict id %d out of range or repeated", v.id)
		return
	}
	seen.set(v.id)
	idx := int((v.id - 1) % int64(len(spec.lines)))
	want, checked, known := spec.expect(idx, v.version)
	if !known {
		res.fail("packet id %d: verdict under unknown version %d", v.id, v.version)
		return
	}
	if !checked {
		return
	}
	got := slices.Sorted(slices.Values(v.matched))
	if !slices.Equal(got, want) {
		res.fail("packet id %d (stream index %d, version %d): matched %v, reference %v", v.id, idx, v.version, got, want)
	}
}

// matchAll runs the reference over packets; keep selects which indexes to
// compute (nil: all).
func matchAll(rs *refSet, packets []*httpmodel.Packet, keep func(int) bool) [][]int {
	out := make([][]int, len(packets))
	for i, p := range packets {
		if keep == nil || keep(i) {
			out[i] = rs.match(newRefPacket(p))
		}
	}
	return out
}

// addPipeRounds folds the measured rounds into the end-to-end result.
// Throughput is the rounds' bulk verdicts over their summed bulk time: the
// host's speed drifts over seconds, and a whole-run average follows that
// drift more smoothly than a median of short slices would.
func (r *e2e) addPipeRounds(rounds []*pipeRound) {
	var rss []float64
	var cpu, span time.Duration
	var bulk int64
	rates := make([]string, len(rounds))
	for i, pr := range rounds {
		rates[i] = fmt.Sprintf("%.0f/s", float64(pr.bulk)/pr.last.Sub(pr.first).Seconds())
		r.attempted += pr.sent
		r.completedOp += pr.received
		bulk += pr.bulk
		span += pr.last.Sub(pr.first)
		cpu += pr.cpu
		rss = append(rss, pr.rssMB)
		r.latencyMS = append(r.latencyMS, pr.lone...)
	}
	r.throughput = float64(bulk) / span.Seconds()
	fmt.Fprintf(os.Stderr, "pipe: per-process bulk throughput %s\n", strings.Join(rates, " "))
	r.cpuUSPerOp = float64(cpu.Microseconds()) / float64(r.completedOp)
	r.peakRSSMB = median(rss)
}

// runPipePaper: leakstream -sigs <paper set>, replaying the trace.
func runPipePaper(e *env) (*e2e, error) {
	if err := e.in.loadPaperSet(); err != nil {
		return nil, err
	}
	lines, err := ndjsonLines(e.in.packets())
	if err != nil {
		return nil, err
	}
	want := matchAll(newRefSet(e.in.paper), e.in.packets(), nil)
	describeMatches("pipe-paper", e.in.paper, want, nil)
	spec := pipeSpec{
		args:  []string{"-sigs", e.in.paperPath},
		lines: lines,
		expect: func(idx int, _ int64) ([]int, bool, bool) {
			return want[idx], true, true
		},
		ready:  func(int64) bool { return true },
		static: true,
	}
	res := &e2e{}
	e.in.release()
	var rounds []*pipeRound
	for i := 0; i < pipeRounds; i++ {
		if err := measureSetup(e, spec, paperSetupSpawns, res); err != nil {
			return nil, err
		}
		pr, err := runPipeRound(e, spec, e.seconds/pipeRounds, res)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, pr)
	}
	res.addPipeRounds(rounds)
	return res, nil
}

// measureSetup spawns leakstream n times, each stopped once it is ready,
// and records each spawn's set-up time.
func measureSetup(e *env, spec pipeSpec, n int, res *e2e) error {
	for i := 0; i < n; i++ {
		pr, err := runPipeRound(e, spec, 0, res)
		if err != nil {
			return err
		}
		res.setup = append(res.setup, pr.setup.Seconds())
	}
	return nil
}

// bigStream is the pipe-10k input: the trace with the adversarial packets
// spread through it, renumbered in stream order.
func bigStream(in *inputs) (packets []*httpmodel.Packet, adversarial []bool) {
	adv := in.adversarial()
	trace := in.packets()
	every := len(trace) / (len(adv) + 1)
	for i, p := range trace {
		packets = append(packets, p)
		adversarial = append(adversarial, false)
		if k := i / every; i%every == every-1 && k < len(adv) {
			packets = append(packets, adv[k])
			adversarial = append(adversarial, true)
		}
	}
	out := make([]*httpmodel.Packet, len(packets))
	for i, p := range packets {
		q := *p
		q.ID = int64(i + 1)
		out[i] = &q
	}
	return out, adversarial
}

// runPipe10k: sigserver serving the 10k set, leakstream -server in pipe
// mode, the 10k set republished once mid-stream. Each measured round gets
// a fresh sigserver, so every round fetches the same set and republishes
// the same update.
func runPipe10k(e *env) (*e2e, error) {
	v1, v2, v1Path, err := e.in.bigSets()
	if err != nil {
		return nil, err
	}
	packets, adversarial := bigStream(e.in)
	lines, err := ndjsonLines(packets)
	if err != nil {
		return nil, err
	}
	keep := func(i int) bool { return i%bigCheckEvery == 0 || adversarial[i] }
	want1 := matchAll(newRefSet(v1), packets, keep)
	want2 := matchAll(newRefSet(v2), packets, keep)
	describeMatches("pipe-10k", v1, want1, keep)
	for i, a := range adversarial {
		if a && len(want1[i]) == 0 {
			return nil, fmt.Errorf("reference misses adversarial packet %d", i)
		}
	}
	packets = nil

	res := &e2e{}
	e.in.release()
	var rounds []*pipeRound
	for r := 0; r < pipeRounds; r++ {
		srv, err := startSigserver(e, v1Path)
		if err != nil {
			return nil, err
		}
		pr, err := bigRound(e, srv, v2, lines, keep, want1, want2, res)
		srv.stop()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, pr)
	}
	res.addPipeRounds(rounds)
	return res, nil
}

// bigRound measures set-up with extra spawns against srv, then one
// leakstream that streams the round's packets.
func bigRound(e *env, srv *sigserverProc, v2 *signature.Set, lines [][]byte, keep func(int) bool, want1, want2 [][]int, res *e2e) (*pipeRound, error) {
	base, err := srv.version()
	if err != nil {
		return nil, err
	}
	var published atomic.Bool
	spec := pipeSpec{
		args:  []string{"-server", srv.url, "-poll", "1s"},
		lines: lines,
		expect: func(idx int, version int64) ([]int, bool, bool) {
			switch {
			case version == 0:
				return nil, keep(idx), true
			case version == base:
				return want1[idx], keep(idx), true
			case version == base+1 && published.Load():
				return want2[idx], keep(idx), true
			}
			return nil, false, false
		},
		ready: func(v int64) bool { return v >= base },
	}
	if err := measureSetup(e, spec, bigSetupSpawns, res); err != nil {
		return nil, err
	}
	spec.midway = func() error {
		published.Store(true)
		v, err := srv.publish(v2)
		if err == nil && v != base+1 {
			err = fmt.Errorf("republish got version %d, want %d", v, base+1)
		}
		return err
	}
	return runPipeRound(e, spec, e.seconds/pipeRounds, res)
}

// sigserverProc is a running sigserver.
type sigserverProc struct {
	cmd    *exec.Cmd
	url    string
	stderr tailBuffer
}

func startSigserver(e *env, sigsPath string) (*sigserverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &sigserverProc{url: "http://" + addr}
	s.cmd = command(e.bin("sigserver"), "-addr", addr, "-sigs", sigsPath)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.version(); err == nil {
			return s, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("sigserver did not come up\n%s", s.stderr.String())
}

func (s *sigserverProc) stop() { stopChild(s.cmd, 10*time.Second) }

func (s *sigserverProc) version() (int64, error) {
	resp, err := http.Get(s.url + "/version")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

func (s *sigserverProc) publish(set *signature.Set) (int64, error) {
	var body bytes.Buffer
	if err := set.WriteJSON(&body); err != nil {
		return 0, err
	}
	resp, err := http.Post(s.url+"/publish", "application/json", &body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("publish: %s: %s", resp.Status, b)
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

// describeMatches prints the make-up of a set and how often the reference
// matches it on the checked packets.
func describeMatches(name string, set *signature.Set, want [][]int, keep func(int) bool) {
	var subseq, views, anyHost int
	for _, s := range set.Signatures {
		switch {
		case s.Kind == signature.KindSubsequence:
			subseq++
		case len(s.Views) > 0:
			views++
		}
		if s.HostSuffix == "" {
			anyHost++
		}
	}
	var checked, hit, ids int
	for i, w := range want {
		if keep != nil && !keep(i) {
			continue
		}
		checked++
		if len(w) > 0 {
			hit++
			ids += len(w)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d signatures (%d subsequence, %d with decode views, %d without host constraint); reference matches %.1f%% of %d checked packets, %.2f IDs per matching packet\n",
		name, set.Len(), subseq, views, anyHost, 100*float64(hit)/float64(checked), checked, float64(ids)/float64(max(hit, 1)))
}
