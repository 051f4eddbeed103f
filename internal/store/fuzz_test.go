package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentReplay throws arbitrary segment-file contents — torn
// tails, binary garbage, missing newlines — at OpenSegmentStore and
// checks the recovery contract: opening either fails cleanly or yields a
// store that accepts a Put, closes, and reopens with every recovered key
// holding byte-identical bodies plus the new record. The seed corpus is
// the set of crash states the store must survive: zero-length files,
// header-only files, unterminated tails, torn trailing lines, and
// mid-file corruption.
func FuzzSegmentReplay(f *testing.F) {
	hdr, err := json.Marshal(segmentHeader{Format: segmentFormat, Version: segmentVersion})
	if err != nil {
		f.Fatal(err)
	}
	full, err := json.Marshal(Record{Key: "dsepoint|all-Si|huff", Kind: "point", Body: []byte(`{"index":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	full = append(full, '\n')
	withHeader := func(rest string) []byte {
		return append(append(bytes.Clone(hdr), '\n'), rest...)
	}

	f.Add([]byte{})                                                        // crash before the header flush
	f.Add(withHeader(""))                                                  // header only
	f.Add(bytes.Clone(hdr))                                                // header without its newline
	f.Add(withHeader(string(full)))                                        // one intact record
	f.Add(withHeader(string(full[:len(full)-1])))                          // record missing its newline
	f.Add(withHeader(string(full[:len(full)/2])))                          // torn trailing record
	f.Add(withHeader("{\"key\":\"\"}\n"))                                  // a record with no key
	f.Add(withHeader("garbage\n{}\n"))                                     // corrupt middle line
	f.Add([]byte("\x00\x01\x02\xff\xfe\n"))                                // binary garbage
	f.Add([]byte("{\"format\":\"ppatc-store-segment\",\"version\":99}\n")) // wrong version header

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.ndjson"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenSegmentStore(dir, 0)
		if err != nil {
			return // rejecting a mangled file is always acceptable
		}
		recovered := make(map[string][]byte)
		if err := st.Scan("", func(rec Record) error {
			recovered[rec.Key] = rec.Body
			return nil
		}); err != nil {
			t.Fatalf("scanning a store that opened: %v", err)
		}
		// The recovery contract: appending after recovery must leave a
		// directory that reopens with every record — recovered and new —
		// intact, whatever the tail looked like before.
		added := Record{Key: "fuzz|new", Kind: "point", Body: []byte(`{"fuzz":true}`)}
		if err := st.Put(added); err != nil {
			t.Fatalf("put after recovery: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenSegmentStore(dir, 0)
		if err != nil {
			t.Fatalf("reopen after put: %v", err)
		}
		defer st2.Close()
		rec, ok, err := st2.Get(added.Key)
		if err != nil || !ok || !bytes.Equal(rec.Body, added.Body) {
			t.Fatalf("new record lost: ok=%v err=%v body=%q", ok, err, rec.Body)
		}
		delete(recovered, added.Key)
		for key, body := range recovered {
			rec, ok, err := st2.Get(key)
			if err != nil || !ok {
				t.Fatalf("recovered key %q lost after put+reopen: ok=%v err=%v", key, ok, err)
			}
			if !bytes.Equal(rec.Body, body) {
				t.Fatalf("recovered key %q body changed: %q != %q", key, rec.Body, body)
			}
		}
		if got, want := st2.Stats().Keys, len(recovered)+1; got != want {
			t.Fatalf("reopened keys = %d, want %d", got, want)
		}
	})
}
