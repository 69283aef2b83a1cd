package main

// The generate workload: leakcluster over the trace at N=500, the paper's
// largest N (§IV: NCD packet distance, group-average clustering, LCS
// tokens). Set-up is the time to the first line leakcluster prints, once
// it has loaded and labelled the capture; throughput counts the sample
// packets turned into signatures per second after that, and the latency
// of one run is its whole wall time. Throughput and CPU are totals over
// the runs; latency and memory are medians.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"leaksig/internal/signature"
)

// Figure 4 bands at N=500, as the repository's paper-shape test applies
// them around the paper's TP 94% / FN 5% / FP 2.3%.
const (
	figure4TPMin = 88
	figure4TPMax = 99.5
	figure4FNMax = 12
	figure4FPMax = 4
)

type generateRound struct {
	setup, work time.Duration
	cpu         time.Duration
	rssMB       float64
	out         []byte
}

// generateRounds is the fixed number of leakcluster runs per benchmark run:
// one per five seconds of run length (one takes 6-7 s on the 2-core
// reference host, so a run lasts a little longer than its length).
func generateRounds(d time.Duration) int { return max(1, int(d.Seconds()/5)) }

// runLeakcluster runs leakcluster once; with setupOnly it kills the
// process once the capture line is out.
func runLeakcluster(e *env, out string, setupOnly bool) (*generateRound, error) {
	cmd := command(e.bin("leakcluster"), "-in", e.in.tracePath, "-device", e.in.devicePath,
		"-n", strconv.Itoa(paperN), "-seed", strconv.FormatInt(e.seed, 10), "-out", out)
	var stderr tailBuffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	hwm := watchHWM(cmd.Process.Pid)
	r := &generateRound{}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if r.setup == 0 && strings.HasPrefix(sc.Text(), "capture:") {
			r.setup = time.Since(start)
			if setupOnly {
				cmd.Process.Kill()
				break
			}
		}
	}
	r.rssMB = hwm.peakMB()
	if setupOnly {
		cmd.Wait() // killed: its exit status is not an error
		if r.setup == 0 {
			return nil, fmt.Errorf("leakcluster printed no capture line\n%s", stderr.String())
		}
		return r, nil
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("leakcluster: %v\n%s", err, stderr.String())
	}
	if r.setup == 0 {
		return nil, fmt.Errorf("leakcluster printed no capture line\n%s", stderr.String())
	}
	r.work = time.Since(start) - r.setup
	r.cpu = cpuTime(cmd)
	r.out, err = os.ReadFile(out)
	return r, err
}

func runGenerate(e *env) (*e2e, error) {
	res := &e2e{}
	out := filepath.Join(e.work, "tmp", fmt.Sprintf("generate-%d-%d.json", os.Getpid(), e.seed))
	defer os.Remove(out)
	var outputs [][]byte
	e.in.release()
	var rss []float64
	var work, cpu time.Duration
	for rounds := 0; rounds < generateRounds(e.seconds); rounds++ {
		sp := e.spans.begin("generate.round")
		r, err := runLeakcluster(e, out, false)
		e.spans.end(sp, paperN)
		if err != nil {
			return nil, err
		}
		res.attempted++
		res.completedOp++
		res.setup = append(res.setup, r.setup.Seconds())
		res.latencyMS = append(res.latencyMS, float64((r.setup+r.work).Microseconds())/1000)
		work += r.work
		cpu += r.cpu
		rss = append(rss, r.rssMB)
		seen := false
		for _, o := range outputs {
			seen = seen || bytes.Equal(o, r.out)
		}
		if !seen {
			outputs = append(outputs, r.out)
		}
		// One more leakcluster, stopped once it reports the capture
		// loaded, adds a set-up sample; so the samples are spread over
		// the benchmark run.
		if r, err = runLeakcluster(e, out, true); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, r.setup.Seconds())
	}
	// Each distinct output is checked once, after the measured runs.
	for _, o := range outputs {
		if err := checkGenerated(e.in, o, res); err != nil {
			return nil, err
		}
	}
	samples := float64(res.completedOp * paperN)
	res.throughput = samples / work.Seconds()
	res.cpuUSPerOp = float64(cpu.Microseconds()) / samples
	res.peakRSSMB = median(rss)
	return res, nil
}

// checkGenerated scores leakcluster's output with the benchmark's own
// reference matcher and labels: every signature matches at least its
// cluster_size trace packets, and TP/FN/FP at N=500 fall in the Figure 4
// bands.
func checkGenerated(in *inputs, out []byte, res *e2e) error {
	set, err := signature.ReadJSON(bytes.NewReader(out))
	if err != nil {
		return fmt.Errorf("reading leakcluster output: %w", err)
	}
	if set.Len() == 0 {
		res.fail("leakcluster emitted no signatures")
		return nil
	}
	q := scoreSet(in, set)
	for i, s := range set.Signatures {
		if q.perSig[i] < s.ClusterSize {
			res.fail("signature %d matches %d trace packets, fewer than its cluster_size %d", s.ID, q.perSig[i], s.ClusterSize)
		}
	}
	fmt.Fprintf(os.Stderr, "generate: %d signatures; TP %.2f%% FN %.2f%% FP %.2f%% (sensitive %d, normal %d, N=%d)\n",
		set.Len(), q.tp, q.fn, q.fp, q.sensitive, q.normal, paperN)
	if q.tp < figure4TPMin || q.tp > figure4TPMax || q.fn > figure4FNMax || q.fp > figure4FPMax {
		res.fail("Figure 4 at N=%d out of band: TP %.2f%% FN %.2f%% FP %.2f%%", paperN, q.tp, q.fn, q.fp)
	}
	return nil
}

type setScore struct {
	perSig            []int
	tp, fn, fp        float64
	sensitive, normal int
}

// scoreSet applies the paper's equations: with N sample packets drawn from
// the sensitive group, TP = (detected sensitive - N) / (sensitive - N),
// FN = undetected sensitive / (sensitive - N), FP = detected normal /
// (normal - N).
func scoreSet(in *inputs, set *signature.Set) setScore {
	rs := newRefSet(set)
	lab := newLabeller(in.device)
	idx := make(map[int]int, set.Len())
	for i, s := range set.Signatures {
		idx[s.ID] = i
	}
	q := setScore{perSig: make([]int, set.Len())}
	var detSens, undetSens, detNormal int
	for _, p := range in.packets() {
		rp := newRefPacket(p)
		ids := rs.match(rp)
		for _, id := range ids {
			q.perSig[idx[id]]++
		}
		if lab.sensitive(rp) {
			q.sensitive++
			if len(ids) > 0 {
				detSens++
			} else {
				undetSens++
			}
		} else {
			q.normal++
			if len(ids) > 0 {
				detNormal++
			}
		}
	}
	n := paperN
	q.tp = 100 * float64(detSens-n) / float64(q.sensitive-n)
	q.fn = 100 * float64(undetSens) / float64(q.sensitive-n)
	q.fp = 100 * float64(detNormal) / float64(q.normal-n)
	return q
}
