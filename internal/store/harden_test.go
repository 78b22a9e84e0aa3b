package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"multicore/internal/schema"
	"multicore/internal/sweepd/journal"
)

// TestCorruptFrameRepairedInOwnSegment: a corrupt entry must not shadow
// its key forever. The key reads as a miss, the re-run's entry lands in
// the reader's own segment, and every later reader sees the repair.
func TestCorruptFrameRepairedInOwnSegment(t *testing.T) {
	dir := t.TempDir()
	k := testKey("corrupt-me")
	s, _ := Open(dir)
	if err := s.Put(k, 7.5); err != nil {
		t.Fatal(err)
	}
	s.Close()
	damaged := onlySegment(t, dir)
	data, _ := os.ReadFile(damaged)
	data[bytes.Index(data, []byte("7.5"))] ^= 0x20 // the CRC no longer matches
	if err := os.WriteFile(damaged, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, _ = Open(dir)
	if ent, err := s.Get(k); ent != nil || err != nil {
		t.Fatalf("corrupt entry = (%+v, %v), want miss", ent, err)
	}
	if err := s.Put(k, 8.5); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if n := len(segmentFiles(t, dir)); n != 2 {
		t.Fatalf("%d segments after the repair, want the damaged one and the repairing one", n)
	}

	s = open(t, dir)
	ent, err := s.Get(k)
	if err != nil || ent == nil || ent.Status != StatusOK || string(ent.Value) != "8.5" {
		t.Fatalf("after repair = (%+v, %v), want ok 8.5", ent, err)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

// tearingWrites makes the first n appends write half their frame and
// fail, as a full disk or a dropped network mount would.
func tearingWrites(s *Store, n int) {
	s.sh.writeAt = func(f *os.File, b []byte, off int64) (int, error) {
		if n > 0 {
			n--
			w, _ := f.WriteAt(b[:len(b)/2], off)
			return w, errors.New("injected torn write")
		}
		return f.WriteAt(b, off)
	}
}

// intactSegment fails the test unless the segment at path is a sequence
// of whole frames, and returns the count of entry frames (seals aside).
func intactSegment(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads, valid := journal.DecodeFrames(data)
	if valid != len(data) {
		t.Fatalf("segment has %d torn bytes after %d intact frames", len(data)-valid, len(payloads))
	}
	n := 0
	for _, p := range payloads {
		if len(p) > 0 {
			n++
		}
	}
	return n
}

// TestWriteRetriesTransientFailure: an append that fails transiently must
// be retried within one Put, over the truncated torn frame, so the
// segment stays whole and later entries stay visible to other readers.
// Removing the retry loop or the truncation in write fails this.
func TestWriteRetriesTransientFailure(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.Put(testKey("before"), 0.5); err != nil {
		t.Fatal(err)
	}
	tearingWrites(s, writeAttempts-1)
	k := testKey("flaky-fs")
	if err := s.Put(k, 1.5); err != nil {
		t.Fatalf("Put with %d transient failures: %v", writeAttempts-1, err)
	}
	ent, err := s.Get(k)
	if err != nil || ent == nil || ent.Status != StatusOK {
		t.Fatalf("after retried write = (%+v, %v), want ok", ent, err)
	}
	if err := s.Put(testKey("after"), 2.5); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if n := intactSegment(t, onlySegment(t, dir)); n != 3 {
		t.Fatalf("segment holds %d frames, want 3", n)
	}
	s = open(t, dir)
	for _, w := range []string{"before", "flaky-fs", "after"} {
		if ent, err := s.Get(testKey(w)); err != nil || ent == nil {
			t.Fatalf("%s after reopening = (%+v, %v), want ok", w, ent, err)
		}
	}
}

// TestWriteRetriesExhausted: a persistently failing append surfaces an
// error naming the attempt budget and leaves neither an entry nor a torn
// frame behind; the next successful write is visible to a fresh reader.
func TestWriteRetriesExhausted(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tearingWrites(s, writeAttempts)
	err := s.Put(testKey("dead-fs"), 1.5)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d attempts", writeAttempts)) {
		t.Fatalf("exhausted write error = %v", err)
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("failed write left %d entries", n)
	}
	if n := intactSegment(t, onlySegment(t, dir)); n != 0 {
		t.Fatalf("failed write left %d frames", n)
	}
	if err := s.Put(testKey("healed"), 2.5); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = open(t, dir)
	if ent, err := s.Get(testKey("healed")); err != nil || ent == nil {
		t.Fatalf("entry after the failed write = (%+v, %v), want ok", ent, err)
	}
	if ent, err := s.Get(testKey("dead-fs")); ent != nil || err != nil {
		t.Fatalf("failed entry = (%+v, %v), want miss", ent, err)
	}
}

// TestFaultKeyHashing: the fault plan and seed must fork the content
// address, and keys keep their historical addresses, which once named
// the entry files (the fault fields are hashed only when a plan is
// present).
func TestFaultKeyHashing(t *testing.T) {
	for k, want := range map[Key]string{
		testKey("cg/A"): "b148b79ed4cdee07fdb942aab20be1e5547f9f78242a16cb8fc124a139c39175",
		{Workload: "w", System: "dmz", Ranks: 2, Scheme: "membind", Scale: "quick", Model: "m",
			Faults: "noise", FaultSeed: 3}: "3052dbcd39542124450e0451397a30ccb341a2329b0656d09a21616f367e06d2",
	} {
		if a := k.address(); hex.EncodeToString(a[:]) != want {
			t.Errorf("address of %+v = %x, want %s", k, a, want)
		}
	}
	clean := testKey("w")
	faulted := clean
	faulted.Faults = "noise:core=0,period=0.001s,frac=0.1"
	faulted.FaultSeed = 1
	if faulted.address() == clean.address() {
		t.Fatal("fault plan does not fork the content address")
	}
	reseeded := faulted
	reseeded.FaultSeed = 2
	if reseeded.address() == faulted.address() {
		t.Fatal("fault seed does not fork the content address")
	}
}

// writerDirEnv, when set, turns TestConcurrentHandlesAndWriterProcess
// into the second writer process, appending to the named store.
const writerDirEnv = "STORE_TEST_WRITER_DIR"

const perWriter = 40

// TestConcurrentHandlesAndWriterProcess: goroutines on separate handles
// of one directory write and read concurrently while a second process
// (this test binary, re-executed) appends to its own segment. Every
// entry of both processes must then be readable, once per key. Run it
// under -race.
func TestConcurrentHandlesAndWriterProcess(t *testing.T) {
	if dir := os.Getenv(writerDirEnv); dir != "" {
		s := open(t, dir)
		for i := 0; i < perWriter; i++ {
			if err := s.Put(testKey(fmt.Sprintf("child/%d", i)), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	dir := t.TempDir()
	child := exec.Command(os.Args[0], "-test.run=^TestConcurrentHandlesAndWriterProcess$", "-test.count=1")
	child.Env = append(os.Environ(), writerDirEnv+"="+dir)
	var out strings.Builder
	child.Stdout, child.Stderr = &out, &out
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}

	const handles = 4
	var wg sync.WaitGroup
	errs := make(chan error, handles)
	for h := 0; h < handles; h++ {
		wg.Add(1)
		s := open(t, dir)
		go func(h int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := testKey(fmt.Sprintf("parent/%d/%d", h, i))
				if err := s.Put(k, float64(i)); err != nil {
					errs <- err
					return
				}
				// Misses on the other writers' keys refresh concurrently
				// with their appends.
				if _, err := s.Get(testKey(fmt.Sprintf("child/%d", i))); err != nil {
					errs <- err
					return
				}
				if ent, err := s.Get(k); err != nil || ent == nil {
					errs <- fmt.Errorf("own entry %v = (%+v, %v)", k, ent, err)
					return
				}
			}
		}(h)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := child.Wait(); err != nil {
		t.Fatalf("writer process: %v\n%s", err, out.String())
	}

	s := open(t, dir)
	// The writer process closed its handle, which sealed its segment: a
	// miss reads the seal and stops watching the segment.
	if ent, err := s.Get(testKey("absent")); ent != nil || err != nil {
		t.Fatalf("absent key = (%+v, %v), want miss", ent, err)
	}
	if len(s.sh.live) != 0 {
		t.Fatalf("%d segments still watched after the writer process closed its store", len(s.sh.live))
	}
	for i := 0; i < perWriter; i++ {
		k := testKey(fmt.Sprintf("child/%d", i))
		if ent, err := s.Get(k); err != nil || ent == nil || string(ent.Value) != fmt.Sprint(i) {
			t.Fatalf("child entry %d = (%+v, %v)", i, ent, err)
		}
	}
	if n, err := s.Len(); err != nil || n != (handles+1)*perWriter {
		t.Fatalf("Len = (%d, %v), want %d", n, err, (handles+1)*perWriter)
	}
	if n := len(segmentFiles(t, dir)); n != 2 {
		t.Fatalf("%d segments, want one per writing process", n)
	}
}

// FuzzStoreSegment treats arbitrary bytes as another process's segment.
// Get, List and Len must never panic; Get must never return an entry
// under another key; the store's own entry must survive whatever the
// other segment claims; and the keys stored must be exactly the keys of
// the decodable entries in the segment's intact (CRC-checked) frames
// plus the store's own, as an independent decoder sees them.
func FuzzStoreSegment(f *testing.F) {
	own := testKey("own")
	frame := func(e Entry) []byte {
		b, _ := json.Marshal(e)
		return journal.EncodeFrame(nil, b)
	}
	good := frame(Entry{SchemaVersion: schema.Version, Key: testKey("other"), Status: StatusOK, Value: json.RawMessage("2")})
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-1])
	badCRC := append([]byte(nil), good...)
	badCRC[3] ^= 1
	f.Add(badCRC)
	f.Add(append(append([]byte(nil), good...), badCRC...))
	f.Add(frame(Entry{SchemaVersion: schema.Version, Key: own, Status: StatusError, Error: "x"}))
	f.Add(frame(Entry{SchemaVersion: schema.Version + 1, Key: own, Status: StatusOK, Value: json.RawMessage("3")}))
	f.Add(journal.EncodeFrame(nil, []byte(`{"key":{"workload":"own"},"schema_version":"x"}`)))
	f.Add(journal.EncodeFrame(nil, []byte("not json")))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := open(t, dir)
		if err := s.Put(own, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "other"+segExt), data, 0o644); err != nil {
			t.Fatal(err)
		}

		want := map[Key]bool{own: true}
		for rest := data; ; {
			l, n := binary.Uvarint(rest)
			var canon [binary.MaxVarintLen64]byte
			if n <= 0 || binary.PutUvarint(canon[:], l) != n || uint64(len(rest)-n) < 4 || l > uint64(len(rest)-n-4) {
				break
			}
			payload := rest[n+4 : n+4+int(l)]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[n:]) {
				break
			}
			var head struct {
				Key Key `json:"key"`
			}
			if json.Unmarshal(payload, &head) == nil {
				want[head.Key] = true
			}
			rest = rest[n+4+int(l):]
		}

		if n, err := s.Len(); err != nil || n != len(want) {
			t.Fatalf("Len = (%d, %v), want %d", n, err, len(want))
		}
		if entries, err := s.List(); err == nil {
			for _, e := range entries {
				if !want[e.Key] {
					t.Fatalf("List returned %+v, which no intact frame holds", e.Key)
				}
			}
		}
		for k := range want {
			ent, err := s.Get(k)
			if err == nil && (ent == nil || ent.Key != k) {
				t.Fatalf("Get(%+v) = %+v", k, ent)
			}
		}
		if ent, err := s.Get(own); err != nil || ent.Status != StatusOK || string(ent.Value) != "1" {
			t.Fatalf("own entry = (%+v, %v), want ok 1", ent, err)
		}
		if ent, err := s.Get(testKey("absent")); ent != nil || err != nil {
			t.Fatalf("absent key = (%+v, %v), want miss", ent, err)
		}
	})
}

// TestCloseWhileWriting: closing the last handle while goroutines still
// write through it fails their later calls with errClosed, never a
// panic, and leaves a whole segment. Run it under -race.
func TestCloseWhileWriting(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	var started, done sync.WaitGroup
	for g := 0; g < 4; g++ {
		started.Add(1)
		done.Add(1)
		go func(g int) {
			defer done.Done()
			for i := 0; ; i++ {
				err := s.Put(testKey(fmt.Sprintf("w%d/%d", g, i)), 1.0)
				if err == nil {
					_, err = s.Get(testKey("absent"))
				}
				if i == 0 {
					started.Done()
				}
				if err != nil {
					if !errors.Is(err, errClosed) {
						t.Error(err)
					}
					return
				}
			}
		}(g)
	}
	started.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	if n := intactSegment(t, onlySegment(t, dir)); n < 4 {
		t.Fatalf("segment holds %d entries, want at least one per writer", n)
	}
}
