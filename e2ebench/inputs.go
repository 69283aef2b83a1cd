package main

// Input builder. Everything a workload feeds the programs is made here from
// the workload seed: the trafficgen trace, the paper-scale signature set
// (leakcluster at N=500), the 10k set with its kinded share and its
// mid-stream republish, the adversarial encoded leaks, and the proxy request
// mix. Files the programs read are cached per seed under the work directory,
// so building them counts in no metric.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"leaksig/internal/android"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

const (
	paperN         = 500    // the paper's largest sample size
	bigSetSize     = 10_000 // signatures in the pipe-10k set
	republishShare = 20     // one built signature in this many is replaced on republish
)

// inputs holds one seed's generated inputs.
type inputs struct {
	seed   int64
	dir    string // per-seed cache directory
	binDir string

	dev        *android.Device
	device     deviceFile
	trace      []*httpmodel.Packet // nil once released; see packets
	tracePath  string
	devicePath string

	paper     *signature.Set
	paperPath string
}

// loadInputs generates the trace for seed and writes the files the
// programs read, unless a previous run already cached them.
func loadInputs(work, binDir string, seed int64) (*inputs, error) {
	in := &inputs{
		seed:   seed,
		dir:    filepath.Join(work, "inputs", fmt.Sprintf("seed-%d", seed)),
		binDir: binDir,
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	ds := trafficgen.Generate(trafficgen.Config{Seed: seed})
	in.trace = ds.Capture.Packets
	in.dev = ds.Device
	in.device = deviceFile{IMEI: ds.Device.IMEI, IMSI: ds.Device.IMSI, SIMSerial: ds.Device.SIMSerial, AndroidID: ds.Device.AndroidID}
	in.device.Carrier.Name = ds.Device.Carrier.Name

	in.tracePath = filepath.Join(in.dir, "trace.jsonl")
	in.devicePath = filepath.Join(in.dir, "device.json")
	if !exists(in.tracePath) {
		if err := writeAtomic(in.tracePath, func(f *os.File) error { return ds.Capture.WriteJSONL(f) }); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	if !exists(in.devicePath) {
		if err := writeAtomic(in.devicePath, func(f *os.File) error { return json.NewEncoder(f).Encode(ds.Device) }); err != nil {
			return nil, fmt.Errorf("writing device file: %w", err)
		}
	}
	return in, nil
}

// packets returns the trace, generating it again if it was released.
func (in *inputs) packets() []*httpmodel.Packet {
	if in.trace == nil {
		in.trace = trafficgen.Generate(trafficgen.Config{Seed: in.seed}).Capture.Packets
	}
	return in.trace
}

// release drops the in-memory trace and collects it, so the benchmark's own
// heap is small and its collector quiet while a workload is measured.
func (in *inputs) release() {
	in.trace = nil
	runtime.GC()
}

// loadPaperSet builds the paper-scale set with the offline pipeline
// (leakcluster at N=500, sampling seed = workload seed), once per seed.
func (in *inputs) loadPaperSet() error {
	if in.paper != nil {
		return nil
	}
	in.paperPath = filepath.Join(in.dir, "paper.json")
	if !exists(in.paperPath) {
		tmp := in.paperPath + ".tmp"
		cmd := command(filepath.Join(in.binDir, "leakcluster"),
			"-in", in.tracePath, "-device", in.devicePath,
			"-n", strconv.Itoa(paperN), "-seed", strconv.FormatInt(in.seed, 10), "-out", tmp)
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("leakcluster: %v\n%s", err, out)
		}
		if err := os.Rename(tmp, in.paperPath); err != nil {
			return err
		}
	}
	set, err := readSet(in.paperPath)
	if err != nil {
		return err
	}
	in.paper = set
	return nil
}

// bigSets returns the 10k set, its mid-stream republish, and the file the
// first is served from.
// Most signatures are host-constrained conjunctions of tokens cut from one
// trace packet; about 2% are subsequences and 2% conjunctions opted into one
// decode view; one is the adversarial identifier signature with every view.
func (in *inputs) bigSets() (v1, v2 *signature.Set, v1Path string, err error) {
	rng := rand.New(rand.NewSource(in.seed*7919 + 1))
	b := newSigBuilder(rng, in.packets())
	v1 = &signature.Set{}
	for id := 1; len(v1.Signatures) < bigSetSize-1; id++ {
		v1.Signatures = append(v1.Signatures, b.next(id))
	}
	adv := trafficgen.AdversarialSignature(in.dev, signature.KnownViews())
	adv.ID = bigSetSize
	v1.Signatures = append(v1.Signatures, adv)

	v2 = &signature.Set{}
	next := 2 * bigSetSize
	for i, s := range v1.Signatures {
		if i%republishShare == republishShare-1 && s != adv {
			next++
			s = b.next(next)
		}
		v2.Signatures = append(v2.Signatures, s)
	}
	v1Path = filepath.Join(in.dir, "sigs10k.json")
	if err := writeAtomic(v1Path, func(f *os.File) error { return v1.WriteJSON(f) }); err != nil {
		return nil, nil, "", err
	}
	return v1, v2, v1Path, nil
}

// adversarial returns the encoded identifier leaks for the trace's device.
func (in *inputs) adversarial() []*httpmodel.Packet {
	set := trafficgen.GenerateAdversarial(trafficgen.AdversarialConfig{Seed: in.seed, Device: in.dev})
	return set.Packets
}

// sigBuilder cuts signatures out of trace packets, spread evenly over the
// trace's hosts.
type sigBuilder struct {
	rng    *rand.Rand
	hosts  []string
	byHost map[string][]*httpmodel.Packet
	seen   map[string]bool
}

func newSigBuilder(rng *rand.Rand, packets []*httpmodel.Packet) *sigBuilder {
	b := &sigBuilder{rng: rng, byHost: make(map[string][]*httpmodel.Packet), seen: make(map[string]bool)}
	for _, p := range packets {
		if b.byHost[p.Host] == nil {
			b.hosts = append(b.hosts, p.Host)
		}
		b.byHost[p.Host] = append(b.byHost[p.Host], p)
	}
	sort.Strings(b.hosts)
	return b
}

// next returns a fresh signature built from a random packet of a random
// host: a host
// constraint (the host or its parent domain) and two or three tokens, each a
// query, cookie or body parameter of the packet: whole ("k=v"), or one time
// in five, when the name has at least three bytes, its name alone ("key="). A
// subsequence keeps its tokens in content order.
func (b *sigBuilder) next(id int) *signature.Signature {
	for {
		ps := b.byHost[b.hosts[b.rng.Intn(len(b.hosts))]]
		p := ps[b.rng.Intn(len(ps))]
		pieces := paramPieces(p)
		if len(pieces) == 0 {
			continue
		}
		s := &signature.Signature{ID: id, HostSuffix: p.Host}
		if labels := strings.Split(p.Host, "."); len(labels) > 2 && b.rng.Intn(2) == 0 {
			s.HostSuffix = strings.Join(labels[1:], ".")
		}
		switch r := b.rng.Intn(100); {
		case r < 2:
			s.Kind = signature.KindSubsequence
		case r < 4:
			s.Views = []string{signature.KnownViews()[b.rng.Intn(4)]}
		case r < 5:
			s.HostSuffix = "" // a few unconstrained, with whole parameters only
		}
		k := 2 + b.rng.Intn(2)
		if k > len(pieces) {
			k = len(pieces)
		}
		idx := b.rng.Perm(len(pieces))[:k]
		sort.Ints(idx)
		for _, i := range idx {
			tok := pieces[i]
			if eq := strings.IndexByte(tok, '='); eq >= 3 && s.HostSuffix != "" && b.rng.Intn(5) == 0 {
				tok = tok[:eq+1]
			}
			s.Tokens = append(s.Tokens, tok)
		}
		if key := s.Key(); !b.seen[key] {
			b.seen[key] = true
			return s
		}
	}
}

// paramPieces lists the packet's parameters in content order: the path and
// each query pair, then each cookie pair, then each pair of a form body.
// Pieces shorter than four bytes are dropped.
func paramPieces(p *httpmodel.Packet) []string {
	var out []string
	add := func(s string) {
		if len(s) >= 4 && len(s) <= 64 {
			out = append(out, s)
		}
	}
	path, query, _ := strings.Cut(p.Path, "?")
	add(path)
	for _, kv := range strings.Split(query, "&") {
		add(kv)
	}
	for _, h := range p.Headers {
		if strings.EqualFold(h.Name, "Cookie") {
			for _, kv := range strings.Split(h.Value, "; ") {
				add(kv)
			}
		}
	}
	if isPrintable(p.Body) {
		for _, kv := range strings.Split(string(p.Body), "&") {
			add(kv)
		}
	}
	return out
}

func isPrintable(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			return false
		}
	}
	return true
}

func readSet(path string) (*signature.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return signature.ReadJSON(f)
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// writeAtomic writes a file through a temporary name, so an interrupted
// build never leaves a half-written cache entry.
func writeAtomic(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ndjsonLines encodes packets as the NDJSON lines leakstream reads, split
// after the leading `{"id":N` so a replay can give every line a fresh ID.
func ndjsonLines(packets []*httpmodel.Packet) ([][]byte, error) {
	out := make([][]byte, len(packets))
	for i, p := range packets {
		line, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		const head = `{"id":`
		if !strings.HasPrefix(string(line), head) {
			return nil, fmt.Errorf("packet %d: NDJSON line does not start with the id", p.ID)
		}
		j := len(head)
		for j < len(line) && line[j] >= '0' && line[j] <= '9' {
			j++
		}
		out[i] = append(line[j:], '\n')
	}
	return out, nil
}
