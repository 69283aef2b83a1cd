package main

// Reference matcher and ground-truth labeller. Both are written apart from
// internal/detect and internal/sensitive: plain substring tests, an ordered
// walk for subsequence signatures, and the standard library's decoders for
// the decode views. The benchmark checks every program output against these.

import (
	"bytes"
	"compress/gzip"
	"crypto/md5"
	"crypto/sha1"
	"encoding/base64"
	"encoding/hex"
	"io"
	"net/url"
	"sort"
	"strings"

	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// View decoding limits, as the decode-view contract documents them: encoded
// runs shorter than refMinRun are not decoded, decoded spans shorter than
// refMinSpan are dropped, and one field yields at most refMaxSpans spans and
// refMaxOutput bytes per view.
const (
	refMinRun    = 16
	refMinSpan   = 4
	refMaxSpans  = 16
	refMaxOutput = 64 << 10
)

// refSig is one signature as the reference understands it.
type refSig struct {
	id     int
	subseq bool
	tokens []string
	host   string
	views  []string
}

// refSet is a signature set prepared for reference matching: signatures
// indexed by host-suffix constraint so a packet only tests the ones whose
// constraint its host can satisfy.
type refSet struct {
	sigs    []refSig
	byHost  map[string][]int // host suffix -> indexes into sigs
	anyHost []int            // unconstrained signatures
}

func newRefSet(set *signature.Set) *refSet {
	rs := &refSet{byHost: make(map[string][]int)}
	for i, s := range set.Signatures {
		rs.sigs = append(rs.sigs, refSig{
			id:     s.ID,
			subseq: s.Kind == signature.KindSubsequence,
			tokens: s.Tokens,
			host:   s.HostSuffix,
			views:  s.Views,
		})
		if s.HostSuffix == "" {
			rs.anyHost = append(rs.anyHost, i)
		} else {
			rs.byHost[s.HostSuffix] = append(rs.byHost[s.HostSuffix], i)
		}
	}
	return rs
}

// refPacket is the content the reference scans: the request line, the
// cookie field and the body, each a separate field that no token may span.
type refPacket struct {
	host   string
	fields [3][]byte
	views  map[string][][]byte // decoded spans per view, filled lazily
}

func newRefPacket(p *httpmodel.Packet) *refPacket {
	var cookies []string
	for _, h := range p.Headers {
		if strings.EqualFold(h.Name, "Cookie") {
			cookies = append(cookies, h.Value)
		}
	}
	return &refPacket{
		host: p.Host,
		fields: [3][]byte{
			[]byte(p.Method + " " + p.Path + " " + p.Proto),
			[]byte(strings.Join(cookies, "; ")),
			p.Body,
		},
	}
}

// hostUnder reports whether host equals suffix or ends in "."+suffix.
func hostUnder(host, suffix string) bool {
	if suffix == "" || host == suffix {
		return true
	}
	return len(host) > len(suffix) && strings.HasSuffix(host, suffix) && host[len(host)-len(suffix)-1] == '.'
}

// match returns the IDs of every signature in the set that matches the
// packet, sorted ascending.
func (rs *refSet) match(p *refPacket) []int {
	var out []int
	try := func(i int) {
		if rs.sigs[i].matches(p) {
			out = append(out, rs.sigs[i].id)
		}
	}
	for _, i := range rs.anyHost {
		try(i)
	}
	// Every label-aligned suffix of the host, the host itself first.
	for h := p.host; ; {
		for _, i := range rs.byHost[h] {
			try(i)
		}
		dot := strings.IndexByte(h, '.')
		if dot < 0 {
			break
		}
		h = h[dot+1:]
	}
	sort.Ints(out)
	return out
}

func (s *refSig) matches(p *refPacket) bool {
	if len(s.tokens) == 0 || !hostUnder(p.host, s.host) {
		return false
	}
	for _, t := range s.tokens {
		if t == "" {
			return false
		}
	}
	if s.subseq {
		if orderedWalk(s.tokens, bytes.Join(p.fields[:], []byte("\n"))) {
			return true
		}
		for _, v := range s.views {
			var stream []byte
			for _, span := range p.view(v) {
				stream = append(stream, span...)
				stream = append(stream, '\n')
			}
			if orderedWalk(s.tokens, stream) {
				return true
			}
		}
		return false
	}
	for _, t := range s.tokens {
		if !p.contains(t, s.views) {
			return false
		}
	}
	return true
}

// contains reports whether tok occurs inside one raw field or inside one
// decoded span of any of the named views.
func (p *refPacket) contains(tok string, views []string) bool {
	for _, f := range p.fields {
		if bytes.Contains(f, []byte(tok)) {
			return true
		}
	}
	for _, v := range views {
		for _, span := range p.view(v) {
			if bytes.Contains(span, []byte(tok)) {
				return true
			}
		}
	}
	return false
}

// orderedWalk reports whether the tokens occur in order, gaps allowed.
func orderedWalk(tokens []string, content []byte) bool {
	for _, t := range tokens {
		i := bytes.Index(content, []byte(t))
		if i < 0 {
			return false
		}
		content = content[i+len(t):]
	}
	return true
}

// view returns the packet's decoded spans under one view, field by field.
func (p *refPacket) view(name string) [][]byte {
	if spans, ok := p.views[name]; ok {
		return spans
	}
	var spans [][]byte
	for _, f := range p.fields {
		spans = append(spans, decodeView(name, f)...)
	}
	if p.views == nil {
		p.views = make(map[string][][]byte)
	}
	p.views[name] = spans
	return spans
}

// decodeView decodes one field under the named view.
func decodeView(name string, field []byte) [][]byte {
	if len(field) == 0 {
		return nil
	}
	switch name {
	case "base64":
		return decodeRuns(field, isB64, func(run []byte, budget int) []byte {
			norm := strings.NewReplacer("-", "+", "_", "/").Replace(string(run))
			n := len(norm)
			if max := budget / 3 * 4; n > max {
				n = max
			}
			if n%4 == 1 {
				n--
			}
			if n < refMinRun {
				return nil
			}
			out := make([]byte, base64.RawStdEncoding.DecodedLen(n))
			m, _ := base64.RawStdEncoding.Decode(out, []byte(norm[:n]))
			return out[:m]
		})
	case "hex":
		return decodeRuns(field, isHex, func(run []byte, budget int) []byte {
			n := len(run) &^ 1
			if n > budget*2 {
				n = budget * 2
			}
			out := make([]byte, n/2)
			m, _ := hex.Decode(out, run[:n])
			return out[:m]
		})
	case "url":
		if !bytes.ContainsAny(field, "%+") {
			return nil
		}
		// Escapes that are not %XX stay literal: quote their '%' first so
		// the standard decoder accepts the field.
		var b strings.Builder
		changed := false
		for i := 0; i < len(field); i++ {
			c := field[i]
			switch {
			case c == '%' && i+2 < len(field) && isHex(field[i+1]) && isHex(field[i+2]):
				changed = true
				b.WriteByte(c)
			case c == '%':
				b.WriteString("%25")
			case c == '+':
				changed = true
				b.WriteByte(c)
			default:
				b.WriteByte(c)
			}
		}
		dec, err := url.QueryUnescape(b.String())
		if err != nil || !changed {
			return nil
		}
		if len(dec) > refMaxOutput {
			dec = dec[:refMaxOutput]
		}
		if len(dec) < refMinSpan {
			return nil
		}
		return [][]byte{[]byte(dec)}
	case "gzip":
		if len(field) < 10 || field[0] != 0x1f || field[1] != 0x8b {
			return nil
		}
		zr, err := gzip.NewReader(bytes.NewReader(field))
		if err != nil {
			return nil
		}
		zr.Multistream(false)
		out, _ := io.ReadAll(io.LimitReader(zr, refMaxOutput))
		if len(out) < refMinSpan {
			return nil
		}
		return [][]byte{out}
	}
	return nil
}

// decodeRuns decodes every maximal run of alphabet bytes at least refMinRun
// long, within the per-field span and output budget.
func decodeRuns(field []byte, alphabet func(byte) bool, dec func(run []byte, budget int) []byte) [][]byte {
	var spans [][]byte
	budget := refMaxOutput
	for i := 0; i < len(field) && len(spans) < refMaxSpans && budget >= refMinSpan; {
		if !alphabet(field[i]) {
			i++
			continue
		}
		j := i
		for j < len(field) && alphabet(field[j]) {
			j++
		}
		run := field[i:j]
		i = j
		if len(run) < refMinRun {
			continue
		}
		if out := dec(run, budget); len(out) >= refMinSpan {
			spans = append(spans, out)
			budget -= len(out)
		}
	}
	return spans
}

func isB64(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '+' || c == '/' || c == '-' || c == '_'
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// deviceFile is the identity file leakgen writes.
type deviceFile struct {
	IMEI      string
	IMSI      string
	SIMSerial string
	AndroidID string
	Carrier   struct{ Name string }
}

// labeller marks a packet sensitive when any identity value of the device
// occurs in its content: the value in plain text, or its MD5 or SHA-1 hex
// digest in lower or upper case (the paper's Table III).
type labeller struct {
	needles [][]byte
}

func newLabeller(d deviceFile) *labeller {
	l := &labeller{}
	add := func(s string) {
		if s != "" {
			l.needles = append(l.needles, []byte(s))
		}
	}
	for _, v := range []string{d.AndroidID, d.IMEI, d.IMSI, d.SIMSerial, d.Carrier.Name} {
		add(v)
		add(strings.ToUpper(v))
		add(strings.ToLower(v))
	}
	for _, v := range []string{d.AndroidID, d.IMEI, d.IMSI, d.SIMSerial} {
		if v == "" {
			continue
		}
		m := md5.Sum([]byte(v))
		s := sha1.Sum([]byte(v))
		for _, h := range []string{hex.EncodeToString(m[:]), hex.EncodeToString(s[:])} {
			add(h)
			add(strings.ToUpper(h))
		}
	}
	return l
}

func (l *labeller) sensitive(p *refPacket) bool {
	for _, f := range p.fields {
		for _, n := range l.needles {
			if bytes.Contains(f, n) {
				return true
			}
		}
	}
	return false
}
