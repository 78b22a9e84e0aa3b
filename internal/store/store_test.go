package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"multicore/internal/schema"
	"multicore/internal/sweepd/journal"
)

func testKey(workload string) Key {
	return Key{Workload: workload, System: "longs", Ranks: 8,
		Scheme: "localalloc", Scale: "quick", Model: "mc-sim/test"}
}

// open returns a handle on dir that the test releases when it ends.
func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// segmentFiles returns the paths of the segment files in dir.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// onlySegment returns the path of dir's one segment file.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	paths := segmentFiles(t, dir)
	if len(paths) != 1 {
		t.Fatalf("want 1 segment in %s, got %v", dir, paths)
	}
	return paths[0]
}

func TestRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	k := testKey("cg/A")
	type pair struct{ A, B float64 }
	want := pair{A: 1.25, B: 0.0625}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	ent, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if ent == nil || ent.Status != StatusOK {
		t.Fatalf("entry = %+v, want ok", ent)
	}
	var got pair
	if err := json.Unmarshal(ent.Value, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round-trip %+v != %+v", got, want)
	}
}

// TestPayloadBytesPinned: a frame's payload is exactly the indented JSON
// document the store has always written per entry, trailing newline
// included, so tools that read entries keep working on the payloads.
func TestPayloadBytesPinned(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Put(testKey("cg/A"), 1.25); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	payloads, valid := journal.DecodeFrames(data)
	if valid != len(data) || len(payloads) != 1 {
		t.Fatalf("segment holds %d frames in %d of %d bytes, want 1 intact frame", len(payloads), valid, len(data))
	}
	const want = `{
  "schema_version": 1,
  "key": {
    "workload": "cg/A",
    "system": "longs",
    "ranks": 8,
    "scheme": "localalloc",
    "scale": "quick",
    "model_version": "mc-sim/test"
  },
  "status": "ok",
  "value": 1.25
}
`
	if string(payloads[0]) != want {
		t.Fatalf("payload =\n%s\nwant\n%s", payloads[0], want)
	}
}

func TestMissingIsNilNil(t *testing.T) {
	s := open(t, t.TempDir())
	ent, err := s.Get(testKey("absent"))
	if ent != nil || err != nil {
		t.Fatalf("miss = (%+v, %v), want (nil, nil)", ent, err)
	}
}

// TestCorruptEntryIsAMiss: a corrupt or torn frame must read as a miss
// (the cell re-runs), never as an error that wedges the sweep, and so
// must every frame behind it in its segment. The flipped digit keeps the
// payload valid JSON, so only the CRC check can catch it.
func TestCorruptEntryIsAMiss(t *testing.T) {
	first, second := testKey("ft/A"), testKey("ft/B")
	for _, tc := range []struct {
		name          string
		corrupt       func([]byte) []byte
		firstSurvives bool
	}{
		{"flipped value digit", func(b []byte) []byte {
			i := bytes.Index(b, []byte("3.5"))
			b[i] = '4'
			return b
		}, false},
		{"garbage length", func(b []byte) []byte { return append([]byte{0xff}, b[1:]...) }, false},
		{"torn last frame", func(b []byte) []byte { return b[:len(b)-3] }, true},
		{"empty", func(b []byte) []byte { return nil }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := Open(dir)
			if err := s.Put(first, 3.5); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(second, 4.5); err != nil {
				t.Fatal(err)
			}
			s.Close()
			path := onlySegment(t, dir)
			data, _ := os.ReadFile(path)
			data = bytes.TrimSuffix(data, journal.EncodeFrame(nil, nil)) // the seal
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			s = open(t, dir)
			ent, err := s.Get(first)
			if err != nil || (ent != nil) != tc.firstSurvives {
				t.Fatalf("first entry = (%+v, %v), want present=%v", ent, err, tc.firstSurvives)
			}
			if ent, err := s.Get(second); ent != nil || err != nil {
				t.Fatalf("entry behind the damage = (%+v, %v), want miss", ent, err)
			}
		})
	}
}

// TestSchemaMismatchRejected: a parseable entry from a different schema
// generation must be a hard error, not silently reinterpreted.
func TestSchemaMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	k := testKey("hpl")
	old, _ := json.Marshal(Entry{SchemaVersion: schema.Version + 1, Key: k, Status: StatusOK, Value: json.RawMessage("1")})
	if err := os.WriteFile(filepath.Join(dir, "older"+segExt), journal.EncodeFrame(nil, old), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	if _, err := s.Get(k); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("schema mismatch not rejected by Get: %v", err)
	}
	if _, err := s.List(); err == nil {
		t.Fatal("schema mismatch not rejected by List")
	}
}

// TestKeyMismatchRejected: an entry whose embedded key disagrees with the
// requested key is a hard error. An index entry points at its own frame,
// so only a segment rewritten in place under a live index (tampering)
// can get there.
func TestKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	k := testKey("ep")
	if err := s.Put(k, 1.0); err != nil {
		t.Fatal(err)
	}
	path := onlySegment(t, dir)
	data, _ := os.ReadFile(path)
	data = bytes.Replace(data, []byte(`"ep"`), []byte(`"mg"`), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := s.Get(k)
	if err == nil || !strings.Contains(err.Error(), "holds key") {
		t.Fatalf("key mismatch not rejected: %v", err)
	}
}

func TestStatuses(t *testing.T) {
	s := open(t, t.TempDir())
	ki := testKey("infeasible-cell")
	if err := s.PutInfeasible(ki); err != nil {
		t.Fatal(err)
	}
	ent, err := s.Get(ki)
	if err != nil || ent == nil || ent.Status != StatusInfeasible {
		t.Fatalf("infeasible entry = (%+v, %v)", ent, err)
	}
	ke := testKey("failed-cell")
	if err := s.PutError(ke, "deadlock at t=3"); err != nil {
		t.Fatal(err)
	}
	ent, err = s.Get(ke)
	if err != nil || ent == nil || ent.Status != StatusError || ent.Error != "deadlock at t=3" {
		t.Fatalf("error entry = (%+v, %v)", ent, err)
	}
	if n, err := s.Len(); err != nil || n != 2 {
		t.Fatalf("Len = (%d, %v), want 2", n, err)
	}
}

// TestOverwrite: re-putting a key (the -resume retry path) replaces the
// old status, in this process and for every later reader.
func TestOverwrite(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	k := testKey("retry")
	if err := s.PutError(k, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, 2.0); err != nil {
		t.Fatal(err)
	}
	ent, err := s.Get(k)
	if err != nil || ent.Status != StatusOK {
		t.Fatalf("after overwrite = (%+v, %v), want ok", ent, err)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (overwrite, not append)", n)
	}
	s.Close()
	s = open(t, dir)
	if ent, err := s.Get(k); err != nil || ent.Status != StatusOK {
		t.Fatalf("reopened after overwrite = (%+v, %v), want ok", ent, err)
	}
}

// TestErrorEntryNeverShadowsResult: across segments, an ok or
// infeasible entry wins over an error entry for the same key, whichever
// segment is read first.
func TestErrorEntryNeverShadowsResult(t *testing.T) {
	k := testKey("resumed")
	for _, okFirst := range []bool{true, false} {
		dir := t.TempDir()
		// Two writers in turn, each with its own segment, named in write
		// order because readers read segments in file-name order.
		for i, ok := range []bool{okFirst, !okFirst} {
			s, _ := Open(dir)
			if ok {
				s.Put(k, 1.0)
			} else {
				s.PutError(k, "boom")
			}
			s.Close()
			for _, path := range segmentFiles(t, dir) {
				if filepath.Base(path) != "0"+segExt {
					os.Rename(path, filepath.Join(dir, fmt.Sprint(i)+segExt))
				}
			}
		}
		s := open(t, dir)
		if ent, err := s.Get(k); err != nil || ent == nil || ent.Status != StatusOK {
			t.Errorf("ok written first=%v: entry = (%+v, %v), want ok", okFirst, ent, err)
		}
		if n, _ := s.Len(); n != 1 {
			t.Errorf("ok written first=%v: Len = %d, want 1", okFirst, n)
		}
	}
}

// TestKeyHashDistinguishesFields: every key field must participate in
// the content address.
func TestKeyHashDistinguishesFields(t *testing.T) {
	base := testKey("w")
	variants := []Key{base}
	k := base
	k.Workload = "w2"
	variants = append(variants, k)
	k = base
	k.System = "dmz"
	variants = append(variants, k)
	k = base
	k.Ranks = 4
	variants = append(variants, k)
	k = base
	k.Scheme = "membind"
	variants = append(variants, k)
	k = base
	k.Scale = "full"
	variants = append(variants, k)
	k = base
	k.Model = "mc-sim/other"
	variants = append(variants, k)
	seen := map[address]Key{}
	for _, v := range variants {
		h := v.address()
		if prev, dup := seen[h]; dup {
			t.Fatalf("keys %+v and %+v share address %x", prev, v, h)
		}
		seen[h] = v
	}
}

// TestListSortedByContentAddress: List orders entries by content address
// whatever the order they were written in.
func TestListSortedByContentAddress(t *testing.T) {
	s := open(t, t.TempDir())
	for _, w := range []string{"a", "b", "c", "d", "e"} {
		if err := s.Put(testKey(w), 1.0); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := s.List()
	if err != nil || len(entries) != 5 {
		t.Fatalf("List = %d entries, %v; want 5", len(entries), err)
	}
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1].Key.address(), entries[i].Key.address()
		if bytes.Compare(a[:], b[:]) >= 0 {
			t.Fatalf("List not sorted by content address at %d", i)
		}
	}
}

// TestSegmentLargerThanReadChunk: a reader indexes a segment that spans
// many read chunks, including a frame longer than a chunk.
func TestSegmentLargerThanReadChunk(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	big := make([]float64, tailChunk/8)
	for i := range big {
		big[i] = float64(i)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		var v any = float64(i)
		if i == n/2 {
			v = big
		}
		if err := s.Put(testKey(fmt.Sprintf("w%d", i)), v); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if info, _ := os.Stat(onlySegment(t, dir)); info.Size() < 4*tailChunk {
		t.Fatalf("segment is %d bytes, want several read chunks", info.Size())
	}
	s = open(t, dir)
	if got, err := s.Len(); err != nil || got != n {
		t.Fatalf("Len = (%d, %v), want %d", got, err, n)
	}
	ent, err := s.Get(testKey(fmt.Sprintf("w%d", n/2)))
	if err != nil || ent == nil || len(ent.Value) < tailChunk {
		t.Fatalf("long entry = (%+v, %v), want a value over %d bytes", ent, err, tailChunk)
	}
}

// TestHandlesShareUntilLastClose: handles on one directory share one
// index and segment; closing one leaves the other working, the last
// Close drops the index, and a closed handle refuses further use.
func TestHandlesShareUntilLastClose(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(filepath.Join(dir, "."))
	if a.sh != b.sh {
		t.Fatal("two handles on one directory do not share their state")
	}
	if err := a.Put(testKey("shared"), 1.0); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if ent, err := b.Get(testKey("shared")); err != nil || ent == nil {
		t.Fatalf("entry through the remaining handle = (%+v, %v)", ent, err)
	}
	if _, err := a.Get(testKey("shared")); err == nil {
		t.Fatal("closed handle still serves Get")
	}
	b.Close()
	if b.sh.idx != nil {
		t.Fatal("last Close kept the index")
	}
	if n := len(segmentFiles(t, dir)); n != 1 {
		t.Fatalf("%d segments, want the one both handles appended to", n)
	}
}

// entryFrame frames an ok entry for k as a writer would append it.
func entryFrame(k Key, value string) []byte {
	data, _ := json.MarshalIndent(Entry{SchemaVersion: schema.Version, Key: k, Status: StatusOK, Value: json.RawMessage(value)}, "", "  ")
	return journal.EncodeFrame(nil, append(data, '\n'))
}

// appendFile appends data to the file at path, creating it if need be.
func appendFile(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptFrameBoundsTheRead: a corrupt frame in front of a long tail
// ends a refresh after one read chunk, at Open and again after the
// segment grows, instead of reading on until the buffer holds the tail.
func TestCorruptFrameBoundsTheRead(t *testing.T) {
	dir := t.TempDir()
	bad := entryFrame(testKey("bad"), "1")
	bad[len(bad)-3] ^= 1
	tail := []byte{}
	for i := 0; len(tail) < 16*tailChunk; i++ {
		tail = append(tail, entryFrame(testKey(fmt.Sprint(i)), "2")...)
	}
	path := filepath.Join(dir, "other"+segExt)
	appendFile(t, path, append(bad, tail...))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var s *Store
	if n := allocated(func() { s = open(t, dir) }); n > 4*tailChunk {
		t.Errorf("Open allocated %d bytes behind a corrupt frame, want at most %d", n, 4*tailChunk)
	}
	appendFile(t, path, tail)
	var ent *Entry
	var err error
	if n := allocated(func() { ent, err = s.Get(testKey("0")) }); n > 4*tailChunk {
		t.Errorf("a miss allocated %d bytes behind a corrupt frame, want at most %d", n, 4*tailChunk)
	}
	if ent != nil || err != nil {
		t.Fatalf("entry behind a corrupt frame = (%+v, %v), want miss", ent, err)
	}
}

// TestSealedSegmentIsNotWatched: misses read the growth of another
// process's segment up to its seal and never after, so a closed writer's
// segment costs later misses nothing.
func TestSealedSegmentIsNotWatched(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	path := filepath.Join(dir, "other"+segExt)
	for _, w := range []string{"a", "b"} {
		appendFile(t, path, entryFrame(testKey(w), "1"))
		if ent, err := s.Get(testKey(w)); err != nil || ent == nil {
			t.Fatalf("entry %s appended to a live segment = (%+v, %v), want ok", w, ent, err)
		}
	}
	appendFile(t, path, journal.EncodeFrame(nil, nil))
	if ent, err := s.Get(testKey("absent")); ent != nil || err != nil {
		t.Fatalf("absent key = (%+v, %v), want miss", ent, err)
	}
	if len(s.sh.live) != 0 {
		t.Fatalf("%d segments still watched after the seal", len(s.sh.live))
	}
	appendFile(t, path, entryFrame(testKey("c"), "1"))
	if ent, err := s.Get(testKey("c")); ent != nil || err != nil {
		t.Fatalf("entry behind the seal = (%+v, %v), want miss (the segment is no longer read)", ent, err)
	}
}

// TestDirectoryListedOnlyWhenChanged: a miss lists the directory for new
// segments only if its mtime moved since a listing that ran well after
// that mtime. A miss over a quiet directory costs one stat, and a
// directory changed within the last mtime step is listed on every miss.
func TestDirectoryListedOnlyWhenChanged(t *testing.T) {
	dir := t.TempDir()
	settle := func(mod time.Time) {
		if err := os.Chtimes(dir, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	settle(old)
	s := open(t, dir)
	hidden := testKey("hidden")
	appendFile(t, filepath.Join(dir, "hidden"+segExt), entryFrame(hidden, "1"))
	settle(old)
	if ent, err := s.Get(hidden); ent != nil || err != nil {
		t.Fatalf("segment behind an unchanged mtime = (%+v, %v), want miss (no listing)", ent, err)
	}

	young := time.Now()
	settle(young)
	if ent, err := s.Get(hidden); err != nil || ent == nil {
		t.Fatalf("segment after the mtime moved = (%+v, %v), want ok", ent, err)
	}
	late := testKey("late")
	appendFile(t, filepath.Join(dir, "late"+segExt), entryFrame(late, "1"))
	settle(young)
	if ent, err := s.Get(late); err != nil || ent == nil {
		t.Fatalf("segment created within a young mtime = (%+v, %v), want ok", ent, err)
	}
}

// TestAdoptsOneFilePerEntryLayout: entry files of the one-file-per-entry
// layout (<content address>.json) move into the opening process's
// segment byte for byte and leave the directory; other files stay. A
// corrupt one reads as a miss, as it always did.
func TestAdoptsOneFilePerEntryLayout(t *testing.T) {
	dir := t.TempDir()
	k, bad := testKey("old"), testKey("old-corrupt")
	name := func(k Key) string {
		a := k.address()
		return filepath.Join(dir, hex.EncodeToString(a[:])+".json")
	}
	data, _ := json.MarshalIndent(Entry{SchemaVersion: schema.Version, Key: k, Status: StatusOK, Value: json.RawMessage("2.5")}, "", "  ")
	data = append(data, '\n')
	appendFile(t, name(k), data)
	appendFile(t, name(bad), []byte(`{"schema_version": 1, "key": {`))
	appendFile(t, filepath.Join(dir, "notes.json"), []byte("{}"))

	s := open(t, dir)
	if ent, err := s.Get(k); err != nil || ent == nil || string(ent.Value) != "2.5" {
		t.Fatalf("adopted entry = (%+v, %v), want ok 2.5", ent, err)
	}
	if ent, err := s.Get(bad); ent != nil || err != nil {
		t.Fatalf("adopted corrupt entry = (%+v, %v), want miss", ent, err)
	}
	for _, path := range []string{name(k), name(bad)} {
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s left in place: %v", filepath.Base(path), err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.json")); err != nil {
		t.Errorf("unrelated file removed: %v", err)
	}
	seg, _ := os.ReadFile(onlySegment(t, dir))
	if payloads, _ := journal.DecodeFrames(seg); !slices.ContainsFunc(payloads, func(p []byte) bool { return bytes.Equal(p, data) }) {
		t.Errorf("no payload equals the adopted file's bytes")
	}
}
