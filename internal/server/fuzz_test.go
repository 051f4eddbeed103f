package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzRequestBodies throws arbitrary bodies at the decoders of
// /v1/evaluate, /v1/batch and /v1/tcdp on one in-process server. Every
// answer must be a JSON body with a non-5xx status: a client can get a
// 400, never a panic or a 500.
//
//	go test ./internal/server/ -run '^$' -fuzz FuzzRequestBodies -fuzztime 10s
func FuzzRequestBodies(f *testing.F) {
	paths := []string{"/v1/evaluate", "/v1/batch", "/v1/tcdp"}
	seeds := []struct {
		path uint8
		body string
	}{
		{0, `{"system":"si","workload":"crc32","grid":"US"}`},
		{0, `{"system":"quantum","workload":"crc32"}`},
		{1, `{"items":[{"system":"m3d","workload":"crc32"},{"system":"si","workload":"doom"}]}`},
		{1, `{"items":[]}`},
		{2, `{"workload":"crc32","months":24,"op_scales":[0.5,1]}`},
		// The two /v1/tcdp inputs that used to be accepted: an on-time
		// overflowing time.Duration (200 with negative carbon) and an
		// op_scale overflowing the isoline (500 on -Inf).
		{2, `{"months":1e6}`},
		{2, `{"op_scales":[1e308]}`},
		{2, `{"op_scales":[` + strings.Repeat("1,", maxOpScales) + `1]}`},
		{2, `{"op_scales":[[1,2],"x"]}`},
	}
	for _, s := range seeds {
		f.Add(s.path, s.body)
	}
	srv := New(quietConfig())
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, path uint8, body string) {
		p := paths[int(path)%len(paths)]
		r := httptest.NewRequest(http.MethodPost, p, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code >= 500 {
			t.Fatalf("POST %s %q: status %d %s", p, body, w.Code, w.Body.Bytes())
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("POST %s %q: status %d with a non-JSON body %q", p, body, w.Code, w.Body.Bytes())
		}
	})
}
