package main

import (
	"bytes"
	"compress/gzip"
	"crypto/md5"
	"crypto/sha1"
	"encoding/base64"
	"encoding/hex"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

func pkt(method, host, path string, cookie string, body string) *refPacket {
	p := &httpmodel.Packet{Method: method, Host: host, Path: path, Proto: "HTTP/1.1", Body: []byte(body)}
	if cookie != "" {
		p.Headers = append(p.Headers, httpmodel.Header{Name: "cookie", Value: cookie})
	}
	return newRefPacket(p)
}

func one(s *signature.Signature) *refSet {
	s.ID = 7
	return newRefSet(&signature.Set{Signatures: []*signature.Signature{s}})
}

func matched(rs *refSet, p *refPacket) bool { return len(rs.match(p)) > 0 }

func TestConjunctionTokensInAnyField(t *testing.T) {
	rs := one(&signature.Signature{Tokens: []string{"uid=42", "sess=ab"}})
	if !matched(rs, pkt("GET", "x.com", "/a?uid=42", "sess=ab", "")) {
		t.Error("tokens split over request line and cookie should match")
	}
	if !matched(rs, pkt("POST", "x.com", "/a", "", "sess=ab&uid=42")) {
		t.Error("conjunction is unordered")
	}
	if matched(rs, pkt("GET", "x.com", "/a?uid=42", "", "")) {
		t.Error("missing token must not match")
	}
}

func TestTokenNeverSpansFieldBoundary(t *testing.T) {
	// The request line ends "HTTP/1.1" and the cookie starts "id=9"; the
	// token "1.1\nid" only exists if fields were joined.
	rs := one(&signature.Signature{Tokens: []string{"HTTP/1.1id=9"}})
	if matched(rs, pkt("GET", "x.com", "/", "id=9", "")) {
		t.Error("token spanning request line and cookie matched")
	}
	rs = one(&signature.Signature{Tokens: []string{"1.1\nid=9"}})
	if matched(rs, pkt("GET", "x.com", "/", "id=9", "")) {
		t.Error("token containing the field separator matched")
	}
	sub := one(&signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"GET /", "id=9"}})
	if !matched(sub, pkt("GET", "x.com", "/", "id=9", "")) {
		t.Error("subsequence may walk across fields, token by token")
	}
}

func TestSubsequenceOrder(t *testing.T) {
	rs := one(&signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"a=1", "b=2"}})
	if !matched(rs, pkt("GET", "x.com", "/p?a=1&b=2", "", "")) {
		t.Error("in-order tokens should match")
	}
	if matched(rs, pkt("GET", "x.com", "/p?b=2&a=1", "", "")) {
		t.Error("out-of-order tokens must not match")
	}
	// The walk must not reuse bytes: "aa" twice needs two occurrences.
	rs = one(&signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"aaa", "aaa"}})
	if matched(rs, pkt("GET", "x.com", "/aaaa", "", "")) {
		t.Error("overlapping occurrence counted twice")
	}
	if !matched(rs, pkt("GET", "x.com", "/aaaaaa", "", "")) {
		t.Error("two disjoint occurrences should match")
	}
}

func TestHostSuffixIsLabelAligned(t *testing.T) {
	rs := one(&signature.Signature{Tokens: []string{"uid="}, HostSuffix: "admob.com"})
	for host, want := range map[string]bool{
		"admob.com":        true,
		"r.admob.com":      true,
		"a.b.admob.com":    true,
		"badmob.com":       false,
		"admob.com.evil":   false,
		"com":              false,
		"xadmob.com":       false,
		"admob.co":         false,
		"media.admob.com.": false,
	} {
		if got := matched(rs, pkt("GET", host, "/?uid=1", "", "")); got != want {
			t.Errorf("host %q: matched=%v, want %v", host, got, want)
		}
	}
	any := one(&signature.Signature{Tokens: []string{"uid="}})
	if !matched(any, pkt("GET", "anything.example", "/?uid=1", "", "")) {
		t.Error("empty host suffix matches every host")
	}
}

func TestEmptySignatureNeverMatches(t *testing.T) {
	if matched(one(&signature.Signature{}), pkt("GET", "x.com", "/", "", "")) {
		t.Error("token-less signature matched")
	}
	if matched(one(&signature.Signature{Tokens: []string{"", "GET"}}), pkt("GET", "x.com", "/", "", "")) {
		t.Error("empty token matched")
	}
}

func gz(s string) string {
	var b bytes.Buffer
	w := gzip.NewWriter(&b)
	w.Write([]byte(s))
	w.Close()
	return b.String()
}

func TestDecodeViews(t *testing.T) {
	const clear = "imei=358967047791858&aid=8bf5c97d2d2a313e"
	cases := []struct {
		view, body string
	}{
		{"base64", "p=" + base64.StdEncoding.EncodeToString([]byte(clear))},
		{"base64", "p=" + base64.RawURLEncoding.EncodeToString([]byte(clear+"??>>"))},
		{"hex", "p=" + hex.EncodeToString([]byte(clear))},
		{"url", "p=" + url.QueryEscape(clear)},
		{"gzip", gz(clear)},
	}
	for _, c := range cases {
		for _, views := range [][]string{nil, {c.view}} {
			rs := one(&signature.Signature{Tokens: []string{"imei=358967047791858", "aid=8bf5c97d2d2a313e"}, Views: views})
			got := matched(rs, pkt("POST", "x.com", "/c", "", c.body))
			if got != (views != nil) {
				t.Errorf("view %s, sig views %v: matched=%v", c.view, views, got)
			}
		}
		sub := one(&signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"imei=", "&aid="}, Views: []string{c.view}})
		if !matched(sub, pkt("POST", "x.com", "/c", "", c.body)) {
			t.Errorf("subsequence under view %s did not match", c.view)
		}
	}
}

func TestDecodeViewEdges(t *testing.T) {
	// Runs shorter than 16 characters are not decoded.
	if spans := decodeView("hex", []byte("x="+hex.EncodeToString([]byte("abcdefg")))); spans != nil {
		t.Errorf("14-char hex run decoded: %q", spans)
	}
	// A '%' that starts no escape stays literal; the rest still decodes.
	spans := decodeView("url", []byte("a=%zz&b=%41%42+c%"))
	if len(spans) != 1 || string(spans[0]) != "a=%zz&b=AB c%" {
		t.Errorf("url view = %q", spans)
	}
	// Nothing to decode: no span at all.
	if spans := decodeView("url", []byte("a=plain")); spans != nil {
		t.Errorf("unchanged url field emitted %q", spans)
	}
	// '=' ends a base64 run, so a "key=" prefix cannot shift its phase.
	enc := base64.StdEncoding.EncodeToString([]byte("secret-token-1234"))
	spans = decodeView("base64", []byte("data="+enc))
	if len(spans) != 1 || string(spans[0]) != "secret-token-1234" {
		t.Errorf("base64 view = %q", spans)
	}
	// A truncated gzip stream yields the prefix that inflated.
	z := gz(strings.Repeat("leak ", 50))
	if spans := decodeView("gzip", []byte(z[:len(z)-8])); len(spans) != 1 || !strings.HasPrefix(string(spans[0]), "leak leak") {
		t.Errorf("truncated gzip view = %q", spans)
	}
}

func TestMatchReturnsSortedIDs(t *testing.T) {
	set := &signature.Set{Signatures: []*signature.Signature{
		{ID: 30, Tokens: []string{"uid="}, HostSuffix: "b.com"},
		{ID: 10, Tokens: []string{"uid="}},
		{ID: 20, Tokens: []string{"uid="}, HostSuffix: "a.b.com"},
		{ID: 40, Tokens: []string{"nope"}},
	}}
	got := newRefSet(set).match(pkt("GET", "a.b.com", "/?uid=1", "", ""))
	if !reflect.DeepEqual(got, []int{10, 20, 30}) {
		t.Errorf("match = %v", got)
	}
}

func TestLabeller(t *testing.T) {
	d := deviceFile{IMEI: "358967047791858", AndroidID: "8bf5c97d2d2a313e", IMSI: "440100604129841", SIMSerial: "8981576568877780513"}
	d.Carrier.Name = "NTTDOCOMO"
	l := newLabeller(d)
	m := md5.Sum([]byte(d.AndroidID))
	s := sha1.Sum([]byte(d.IMEI))
	for body, want := range map[string]bool{
		"imei=358967047791858":                                true,
		"aid=8BF5C97D2D2A313E":                                true,
		"h=" + hex.EncodeToString(m[:]):                       true,
		"h=" + strings.ToUpper(hex.EncodeToString(s[:])):      true,
		"carrier=nttdocomo":                                   true,
		"nothing=here":                                        false,
		"h=" + hex.EncodeToString(m[:])[:20]:                  false,
		"imei=35896704779185":                                 false,
		"s=" + base64.StdEncoding.EncodeToString([]byte("x")): false,
	} {
		if got := l.sensitive(pkt("POST", "x.com", "/", "", body)); got != want {
			t.Errorf("body %q: sensitive=%v, want %v", body, got, want)
		}
	}
	if !l.sensitive(pkt("GET", "x.com", "/?x=1", "uid=440100604129841", "")) {
		t.Error("identity in the cookie field not labelled")
	}
}
