package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var (
	_ ResultStore = (*MemStore)(nil)
	_ ResultStore = (*SegmentStore)(nil)
)

// openStores builds one of each implementation over t.TempDir.
func openStores(t *testing.T) map[string]ResultStore {
	t.Helper()
	seg, err := OpenSegmentStore(filepath.Join(t.TempDir(), "seg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]ResultStore{
		"mem":     NewMemStore(),
		"segment": seg,
	}
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	return stores
}

func TestRoundTrip(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			body := []byte("{\n  \"pretty\": true\n}\n") // whitespace must survive verbatim
			if err := st.Put(Record{Key: "evaluate|si|crc32|US", Kind: "evaluate", Body: body}); err != nil {
				t.Fatal(err)
			}
			rec, ok, err := st.Get("evaluate|si|crc32|US")
			if err != nil || !ok {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
			if !bytes.Equal(rec.Body, body) {
				t.Errorf("body mangled: %q != %q", rec.Body, body)
			}
			if rec.Kind != "evaluate" {
				t.Errorf("kind = %q", rec.Kind)
			}
			if _, ok, _ := st.Get("missing"); ok {
				t.Error("phantom record")
			}

			// Overwrite replaces; the old body is gone.
			if err := st.Put(Record{Key: "evaluate|si|crc32|US", Kind: "evaluate", Body: []byte(`{"v":2}`)}); err != nil {
				t.Fatal(err)
			}
			rec, _, _ = st.Get("evaluate|si|crc32|US")
			if string(rec.Body) != `{"v":2}` {
				t.Errorf("overwrite lost: %s", rec.Body)
			}
			if got := st.Stats().Keys; got != 1 {
				t.Errorf("keys = %d, want 1", got)
			}
		})
	}
}

func TestPutValidation(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Put(Record{Key: "", Body: []byte("x")}); err == nil {
				t.Error("empty key accepted")
			}
			if err := st.Put(Record{Key: "a\nb", Body: []byte("x")}); err == nil {
				t.Error("newline key accepted")
			}
		})
	}
}

func TestScanPrefixOrder(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"point|b", "sweep|x", "point|a", "point|c"} {
				if err := st.Put(Record{Key: k, Kind: "point", Body: []byte(`{}`)}); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			if err := st.Scan("point|", func(r Record) error {
				got = append(got, r.Key)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := []string{"point|a", "point|b", "point|c"}
			if len(got) != len(want) {
				t.Fatalf("scan %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("scan %v, want %v", got, want)
				}
			}
			// A callback error stops the walk and surfaces.
			calls := 0
			err := st.Scan("point|", func(Record) error {
				calls++
				return fmt.Errorf("stop")
			})
			if err == nil || calls != 1 {
				t.Errorf("err=%v calls=%d", err, calls)
			}
		})
	}
}

func TestConcurrentPutGet(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("k%d", i%10)
						body := []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))
						if err := st.Put(Record{Key: key, Body: body}); err != nil {
							t.Error(err)
							return
						}
						if _, _, err := st.Get(key); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if got := st.Stats().Keys; got != 10 {
				t.Errorf("keys = %d, want 10", got)
			}
		})
	}
}

// crashCase is one on-disk state a killed process can leave: the
// records a store held before the crash, how the crash left the
// (single) segment file, and the keys a reopen must recover.
type crashCase struct {
	name      string
	keys      []string
	crash     func(data []byte) []byte
	recovered []string
}

// bodyOf is the record body fill writes under key.
func bodyOf(key string) []byte { return []byte(`{"k":"` + key + `"}`) }

// fill writes one record per key into a fresh store at dir and closes it.
func fill(t *testing.T, dir string, keys []string) {
	t.Helper()
	st, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := st.Put(Record{Key: k, Kind: "point", Body: bodyOf(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopenExpect opens dir and checks it holds exactly the want keys, each
// with the body fill wrote.
func reopenExpect(t *testing.T, dir string, want []string) *SegmentStore {
	t.Helper()
	st, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := st.Stats().Keys; got != len(want) {
		t.Fatalf("reopened keys = %d, want %d", got, len(want))
	}
	for _, k := range want {
		rec, ok, err := st.Get(k)
		if err != nil || !ok || !bytes.Equal(rec.Body, bodyOf(k)) {
			t.Fatalf("reopened get %s: ok=%v err=%v body=%s", k, ok, err, rec.Body)
		}
	}
	return st
}

// runCrashCases applies each crash to a segment file, then checks the
// recovery contract: the reopen keeps exactly the recovered keys, accepts
// appends, and a second reopen finds every record intact — a torn tail
// left in place would corrupt the file only at that second reopen.
func runCrashCases(t *testing.T, cases []crashCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			fill(t, dir, c.keys)
			path := filepath.Join(dir, "seg-00000001.ndjson")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.crash(data), 0o644); err != nil {
				t.Fatal(err)
			}

			st := reopenExpect(t, dir, c.recovered)
			added := []string{"new-1", "new-2"}
			for _, k := range added {
				if err := st.Put(Record{Key: k, Body: bodyOf(k)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := reopenExpect(t, dir, append(append([]string(nil), c.recovered...), added...))
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func keep(data []byte) []byte { return data }

func TestSegmentReopen(t *testing.T) {
	var twenty []string
	for i := 0; i < 20; i++ {
		twenty = append(twenty, fmt.Sprintf("k%02d", i))
	}
	runCrashCases(t, []crashCase{
		{name: "intact records", keys: twenty, crash: keep, recovered: twenty},
		// A crash between file creation and the header flush: the empty
		// file reinitializes instead of wedging every later open.
		{name: "zero-length file", crash: func([]byte) []byte { return nil }},
		// A crash right after the header: nothing to recover.
		{name: "header only", crash: keep},
	})
}

func TestSegmentTornTail(t *testing.T) {
	// chop cuts the file's last record short by n bytes, leaving no
	// trailing newline: a crash mid-append.
	chop := func(n int) func([]byte) []byte {
		return func(data []byte) []byte {
			data = bytes.TrimRight(data, "\n")
			return data[:len(data)-n]
		}
	}
	runCrashCases(t, []crashCase{
		{name: "torn trailing record", keys: []string{"a", "b"},
			crash:     func(data []byte) []byte { return append(data, `{"key":"c","bo`...) },
			recovered: []string{"a", "b"}},
		{name: "torn tail survives two reopens", keys: []string{"a", "b"},
			crash: chop(8), recovered: []string{"a"}},
		{name: "torn only data line", keys: []string{"a"},
			crash: chop(10), recovered: nil},
		// A flush cut exactly at a record boundary: the record is intact
		// and kept, and the next append must not weld onto it.
		{name: "unterminated last record", keys: []string{"a"},
			crash:     func(data []byte) []byte { return bytes.TrimRight(data, "\n") },
			recovered: []string{"a"}},
	})
}

func TestSegmentMidFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(Record{Key: "a", Body: []byte(`{"v":1}`)})
	st.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	f, _ := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("not json\n")                   // complete (newline-terminated) garbage line
	f.WriteString(`{"key":"b","body":""}` + "\n") // followed by a valid record
	f.Close()

	if _, err := OpenSegmentStore(dir, 0); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation quickly.
	st, err := OpenSegmentStore(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 60)
	for i := 0; i < 12; i++ {
		if err := st.Put(Record{Key: fmt.Sprintf("k%d", i), Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Stats().Segments; got < 2 {
		t.Fatalf("segments = %d, want rotation", got)
	}

	// Overwrite every key repeatedly: dead bytes pile up past live and
	// compaction fires.
	for round := 0; round < 6; round++ {
		for i := 0; i < 12; i++ {
			if err := st.Put(Record{Key: fmt.Sprintf("k%d", i), Body: body}); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatalf("no compaction after heavy overwrite: %+v", stats)
	}
	if stats.Keys != 12 {
		t.Fatalf("keys = %d, want 12", stats.Keys)
	}
	// Every record still reads back, and a reopen agrees.
	for i := 0; i < 12; i++ {
		if _, ok, err := st.Get(fmt.Sprintf("k%d", i)); !ok || err != nil {
			t.Fatalf("k%d lost after compaction: ok=%v err=%v", i, ok, err)
		}
	}
	st.Close()
	st2, err := OpenSegmentStore(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Keys; got != 12 {
		t.Fatalf("reopened keys = %d, want 12", got)
	}
}
