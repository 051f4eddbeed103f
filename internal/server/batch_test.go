package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func TestBatchMixedHitMissInvalid(t *testing.T) {
	_, ts := newTestServer(t)

	// Warm one tuple through the single-evaluate path so the batch sees a
	// genuine cache hit, and capture its body for byte-identity.
	resp, single := post(t, ts, "/v1/evaluate", `{"system":"si","workload":"crc32","grid":"US"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm evaluate: %d %s", resp.StatusCode, single)
	}

	resp, b := post(t, ts, "/v1/batch", `{"items":[
		{"system":"si","workload":"crc32","grid":"US"},
		{"system":"si","workload":"crc32","grid":"Coal"},
		{"system":"si","workload":"no-such-kernel"},
		{"system":"si","workload":"crc32","grid":"Coal"}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, b)
	}
	var out struct {
		Count int `json:"count"`
		Items []struct {
			Index    int             `json:"index"`
			System   string          `json:"system"`
			Workload string          `json:"workload"`
			Grid     string          `json:"grid"`
			Cache    string          `json:"cache"`
			Result   json.RawMessage `json:"result"`
			Error    string          `json:"error"`
		} `json:"items"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if out.Count != 4 || len(out.Items) != 4 {
		t.Fatalf("count = %d, items = %d, want 4", out.Count, len(out.Items))
	}
	for i, it := range out.Items {
		if it.Index != i {
			t.Errorf("item %d carries index %d", i, it.Index)
		}
	}

	if it := out.Items[0]; it.Cache != "HIT" || it.Error != "" {
		t.Errorf("warmed tuple: cache %q error %q, want HIT", it.Cache, it.Error)
	}
	// The envelope encoder re-indents embedded raw messages, so compare
	// the payloads structurally rather than byte-for-byte.
	var fromBatch, fromSingle any
	if err := json.Unmarshal(out.Items[0].Result, &fromBatch); err != nil {
		t.Fatalf("batch HIT result not valid JSON: %v", err)
	}
	if err := json.Unmarshal(single, &fromSingle); err != nil {
		t.Fatalf("evaluate result not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(fromBatch, fromSingle) {
		t.Error("batch HIT payload differs from the /v1/evaluate payload for the same tuple")
	}
	if it := out.Items[0]; it.System != "all-Si" || it.Workload != "crc32" || it.Grid != "US" {
		t.Errorf("tuple echo not canonicalized: %q %q %q", it.System, it.Workload, it.Grid)
	}

	// The duplicated fresh tuple: one leads (MISS), the other either
	// coalesces onto it or hits the cache, depending on timing.
	fresh := []string{out.Items[1].Cache, out.Items[3].Cache}
	misses := 0
	for _, c := range fresh {
		switch c {
		case "MISS":
			misses++
		case "COALESCED", "HIT":
		default:
			t.Errorf("fresh tuple disposition %q", c)
		}
	}
	if misses != 1 {
		t.Errorf("duplicate fresh tuples produced %d MISSes, want exactly 1 (%v)", misses, fresh)
	}
	for _, i := range []int{1, 3} {
		if out.Items[i].Error != "" || len(out.Items[i].Result) == 0 {
			t.Errorf("item %d: error %q, result %d bytes", i, out.Items[i].Error, len(out.Items[i].Result))
		}
	}

	// The invalid item fails alone, without failing the batch.
	if it := out.Items[2]; it.Error == "" || !strings.Contains(it.Error, "no-such-kernel") {
		t.Errorf("invalid item error = %q, want unknown-workload message", it.Error)
	}
	if len(out.Items[2].Result) != 0 {
		t.Error("invalid item carries a result")
	}

	// A batch-warmed tuple is a plain-evaluate cache hit: same keyspace.
	resp, _ = post(t, ts, "/v1/evaluate", `{"system":"si","workload":"crc32","grid":"Coal"}`)
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("evaluate after batch: X-Cache %q, want HIT", got)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t)

	resp, _ := post(t, ts, "/v1/batch", `{"items":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/v1/batch", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch: %d, want 400", resp.StatusCode)
	}

	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"system":"si","workload":"crc32"}`)
	}
	sb.WriteString(`]}`)
	resp, b := post(t, ts, "/v1/batch", sb.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %d %s, want 400", resp.StatusCode, b)
	}
}

func TestBatchCancelledContext(t *testing.T) {
	srv := New(quietConfig())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(`{"items":[{"system":"m3d","workload":"strsearch","grid":"US"}]}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled batch: %d %s, want 503", w.Code, w.Body.String())
	}
}
