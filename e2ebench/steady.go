package main

// The steadiness command. It runs two interleaved sets of the same code —
// set A on seeds s..s+runs-1, set B on the next runs seeds, alternating
// which set goes first in each pair — and prints, for every end-to-end
// metric on every workload, each set's median and quartiles, the spread
// (interquartile distance over median) of each set and of both pooled, and
// whether the two sets agree within the metric's bound in BENCHMARK.json:
// medians within the bound of each other and each set's spread within it.
// It always covers every workload that BENCHMARK.json lists.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func runSteady(e *env, args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per set and workload")
	seed := fs.Int64("seed", 1, "first seed of set A")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := readBenchFile(e.root)
	if err != nil {
		return err
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	// vals[workload][set][metric] -> one value per run
	vals := make(map[string]*[2]map[string][]float64)
	shares := make(map[string]map[string]bool)
	for _, w := range names {
		vals[w] = &[2]map[string][]float64{{}, {}}
		shares[w] = make(map[string]bool)
	}
	for i := 0; i < *runs; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, set := range order {
			s := *seed + int64(i+set**runs)
			for _, w := range names {
				res, err := runOnce(exe, e, w, s, bf.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, s, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: outputs incorrect", w, s)
				}
				for k, m := range res.Metrics {
					vals[w][set][k] = append(vals[w][set][k], m.Value)
				}
				g := gcd(res.Failed, res.Attempted)
				shares[w][fmt.Sprintf("%d/%d", res.Failed/g, res.Attempted/g)] = true
				fmt.Fprintf(os.Stderr, "steady: set %c run %d %s seed %d:%s\n", 'A'+set, i+1, w, s, fmtMetrics(res.Metrics))
			}
		}
	}

	fmt.Printf("steadiness: two interleaved sets of %d runs each, run_seconds %d\n", *runs, bf.RunSeconds)
	fmt.Printf("%-11s %-15s %-32s %-32s %7s %7s %7s  %s\n", "workload", "metric", "set A median [q1 q3]", "set B median [q1 q3]", "spreadA", "spreadB", "pooled", "agree")
	allAgree := true
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			a, b := vals[w][0][m.Name], vals[w][1][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			qa, qb, qp := quartiles(a), quartiles(b), quartiles(append(append([]float64(nil), a...), b...))
			sa, sb, sp := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1], (qp[2]-qp[0])/qp[1]
			shift := (qb[1] - qa[1]) / qa[1]
			ok := math.Abs(shift) <= m.Bound && sa <= m.Bound && sb <= m.Bound
			verdict := "yes"
			if !ok {
				verdict = "NO"
				allAgree = false
			}
			fmt.Printf("%-11s %-15s %-32s %-32s %6.1f%% %6.1f%% %6.1f%%  %s (medians %+.1f%%, bound %.0f%%)\n",
				w, m.Name, fmtQ(qa), fmtQ(qb), 100*sa, 100*sb, 100*sp, verdict, 100*shift, 100*m.Bound)
		}
		share := make([]string, 0, len(shares[w]))
		for k := range shares[w] {
			share = append(share, k)
		}
		sort.Strings(share)
		fmt.Printf("%-11s failed share in every run: %s\n", w, strings.Join(share, ", "))
		if len(share) != 1 {
			allAgree = false
		}
	}
	if !allAgree {
		return fmt.Errorf("the two sets do not agree within the bounds")
	}
	return nil
}

func readBenchFile(root string) (*benchFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func fmtMetrics(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.4g", k, m[k].Value)
	}
	return b.String()
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", q[1], q[0], q[2])
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// runOnce runs this benchmark binary for one workload and seed and parses
// its result line.
func runOnce(exe string, e *env, w string, seed int64, seconds int) (result, error) {
	cmd := command(exe, "-root", e.root, "-work", e.work,
		"--workload", w, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	var stderr tailBuffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
