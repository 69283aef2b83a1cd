package main

import (
	"net/http"
	"testing"
)

func TestJudge(t *testing.T) {
	body := []byte("0123456789")
	benign := proxyOp{method: "POST", url: "http://a.example/u", body: body, bodySum: sum64(body)}
	leak := benign
	leak.leak = true
	large, largeLeak := benign, leak
	large.large, largeLeak.large = true, true
	intact := upstreamRecord{method: "POST", url: "http://a.example/u", bodySum: sum64(body), bodyLen: len(body)}
	cut := upstreamRecord{method: "POST", url: "http://a.example/u", bodySum: sum64(body[:4]), bodyLen: 4}
	other := upstreamRecord{method: "POST", url: "http://a.example/u", bodySum: sum64([]byte("abcdefghij")), bodyLen: len(body)}

	cases := []struct {
		name      string
		op        proxyOp
		status    int
		rec       *upstreamRecord // what the sink saw; nil if nothing arrived
		ok, fault bool
	}{
		{"benign forwarded intact", benign, http.StatusOK, &intact, true, false},
		{"benign not forwarded", benign, http.StatusOK, nil, false, false},
		{"benign blocked", benign, http.StatusUnavailableForLegalReasons, nil, false, false},
		{"leak blocked", leak, http.StatusUnavailableForLegalReasons, nil, true, false},
		{"leak forwarded", leak, http.StatusOK, &intact, false, false},
		{"leak forwarded, 451 to client", leak, http.StatusUnavailableForLegalReasons, &intact, false, false},
		{"large leak blocked", largeLeak, http.StatusUnavailableForLegalReasons, nil, true, false},
		{"large leak forwarded is incorrect, not failed", largeLeak, http.StatusOK, &cut, false, false},
		{"large benign intact", large, http.StatusOK, &intact, true, false},
		{"large benign refused", large, http.StatusRequestEntityTooLarge, nil, true, false},
		{"large benign cut short is failed", large, http.StatusOK, &cut, false, true},
		{"large benign altered is incorrect", large, http.StatusOK, &other, false, false},
	}
	for _, c := range cases {
		up := &sink{seen: make(map[int64]upstreamRecord)}
		if c.rec != nil {
			up.seen[7] = *c.rec
		}
		ok, fault := judge(c.op, c.status, 7, up)
		if ok != c.ok || fault != c.fault {
			t.Errorf("%s: judge = (%v, %v), want (%v, %v)", c.name, ok, fault, c.ok, c.fault)
		}
	}
}
