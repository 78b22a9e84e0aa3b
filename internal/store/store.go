// Package store implements the on-disk, content-addressed result store
// behind `mcbench -store` and the sweep workers: one entry per experiment
// cell, keyed by the cell's identity (workload, system, ranks, placement
// scheme, problem scale) plus the simulation model version. A sweep that
// dies halfway — SIGINT, a per-cell timeout, one panicking cell — leaves
// every completed cell on disk, so re-running with -resume executes only
// the missing or failed cells and reproduces byte-identical tables.
//
// Entries live in append-only log segments (<dir>/<random>.seg), one per
// writing process, framed like the coordinator journal
// (internal/sweepd/journal: uvarint length, CRC-32, payload); each
// payload is one entry's indented JSON document, and the last handle's
// Close seals the segment with an empty frame. Every Open of a directory
// within a process shares that process's segment and one in-memory index
// from key to segment offset. A miss re-reads the growth of other
// processes' unsealed segments, and lists the directory for new segments
// only when its mtime says it changed. Concurrent writers (mcbench runs,
// sweep workers) therefore share a directory without locks; two of them
// may both simulate a cell, and the second entry is the same result.
// Entry files of the older one-file-per-entry layout (<address>.json)
// are moved, byte for byte, into the segment of the first process that
// lists them.
//
// A torn or corrupt frame ends what readers accept of its segment: the
// cells behind it read as misses, re-run, and land in the reader's own
// segment. A schema_version mismatch, by contrast, is rejected with a
// clear error — silently reinterpreting an old layout could corrupt
// tables instead of regenerating them.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multicore/internal/schema"
	"multicore/internal/sweepd/journal"
)

// Key identifies one simulated cell. Every field participates in the
// content hash, so two cells with equal keys must be byte-for-byte the
// same simulation. Model carries sim.ModelVersion: results from an older
// model generation never alias results from the current one. Faults and
// FaultSeed carry the canonical fault plan (internal/fault) and its seed:
// perturbed results never alias clean ones, and two distinct perturbations
// never alias each other.
type Key struct {
	Workload  string `json:"workload"`
	System    string `json:"system"`
	Ranks     int    `json:"ranks"`
	Scheme    string `json:"scheme"`
	Scale     string `json:"scale"`
	Model     string `json:"model_version"`
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
}

// address is a key's content address: a SHA-256 over the fields
// separated by NUL bytes (no field can contain one). The fault fields are
// hashed only when a plan is present, so every clean key keeps the
// address it had before fault plans existed. The index is keyed by it,
// and List orders entries by it.
type address [sha256.Size]byte

func (k Key) address() address {
	fields := []string{k.Workload, k.System, strconv.Itoa(k.Ranks), k.Scheme, k.Scale, k.Model}
	if k.Faults != "" {
		fields = append(fields, k.Faults, strconv.FormatInt(k.FaultSeed, 10))
	}
	var buf []byte
	for _, f := range fields {
		buf = append(append(buf, f...), 0)
	}
	return sha256.Sum256(buf)
}

// Entry statuses.
const (
	// StatusOK marks a successful cell; Value holds its result.
	StatusOK = "ok"
	// StatusInfeasible marks a placement the scheme cannot host (the
	// dashes in the paper's tables) — a deterministic non-result that is
	// as cacheable as a success.
	StatusInfeasible = "infeasible"
	// StatusError marks a failed cell (panic, deadlock); Error holds the
	// message. Failed cells re-run under -resume.
	StatusError = "error"
)

// Entry is the schema-versioned JSON document stored per cell.
type Entry struct {
	SchemaVersion int             `json:"schema_version"`
	Key           Key             `json:"key"`
	Status        string          `json:"status"`
	Value         json.RawMessage `json:"value,omitempty"`
	Error         string          `json:"error,omitempty"`
}

// segExt names segment files. Other files in a store directory are
// ignored, except entry files of the one-file-per-entry layout.
const segExt = ".seg"

// Store is a handle on a store directory, safe for concurrent use by
// multiple goroutines. Handles on one directory within a process share
// its segment and index; Close releases this one.
type Store struct {
	sh *shared
	// closed is read under sh.mu: the last Close sets it before it drops
	// the index under sh.mu, so a call that finds it false finishes first.
	closed atomic.Bool
}

// shared is one process's view of a store directory.
type shared struct {
	dir  string
	refs int // open handles; guarded by registry.mu

	mu   sync.Mutex
	idx  map[address]loc
	segs map[string]*segment // every segment read or written, by file name
	own  *segment            // this process's segment; nil until the first write
	live []*segment          // other processes' segments not yet sealed
	// listed is the directory's mtime at the last listing, and sure
	// whether that listing is known to have seen every entry of that mtime.
	listed time.Time
	sure   bool

	// writeAt writes a frame into the own segment; tests inject failures.
	writeAt func(f *os.File, b []byte, off int64) (int, error)
}

// segment is one open segment file. end is the offset just past its
// last intact frame: where this process appends to its own segment, and
// where a refresh resumes reading another process's. seen is the file
// size the last refresh read up to; sealed means its writer closed it.
type segment struct {
	f         *os.File
	end, seen int64
	sealed    bool
}

// loc is where an entry's payload lies.
type loc struct {
	seg    *segment
	off    int64
	n      int
	failed bool // StatusError
}

// registry maps absolute directories to their shared state.
var registry = struct {
	mu   sync.Mutex
	dirs map[string]*shared
}{dirs: map[string]*shared{}}

var errClosed = errors.New("store: use of a closed handle")

// Open creates the directory if needed and returns a handle on it. The
// first handle in a process indexes every segment in the directory.
func Open(dir string) (*Store, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	sh := registry.dirs[abs]
	if sh == nil {
		if err := os.MkdirAll(abs, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %v", dir, err)
		}
		sh = &shared{dir: abs, idx: map[address]loc{}, segs: map[string]*segment{}, writeAt: (*os.File).WriteAt}
		sh.mu.Lock()
		err := sh.refresh()
		sh.mu.Unlock()
		if err != nil {
			sh.closeFiles()
			return nil, err
		}
		registry.dirs[abs] = sh
	}
	sh.refs++
	return &Store{sh: sh}, nil
}

// Close releases the handle. The last handle on a directory in this
// process seals its segment, closes the segment files and drops the
// index, which closed handles that stay reachable would otherwise keep
// in memory.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	sh := s.sh
	if sh.refs--; sh.refs > 0 {
		return nil
	}
	delete(registry.dirs, sh.dir)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var err error
	if sh.own != nil {
		_, err = sh.writeAt(sh.own.f, journal.EncodeFrame(nil, nil), sh.own.end)
	}
	if cerr := sh.closeFiles(); err == nil {
		err = cerr
	}
	sh.idx, sh.segs, sh.own, sh.live = nil, nil, nil, nil
	return err
}

func (sh *shared) closeFiles() error {
	var first error
	for _, seg := range sh.segs {
		if err := seg.f.Close(); first == nil {
			first = err
		}
	}
	return first
}

// Dir returns the store's directory as an absolute path.
func (s *Store) Dir() string { return s.sh.dir }

// Get loads the entry for k. A key absent from every segment's intact
// frames returns (nil, nil) — the cell re-runs. An entry with a
// mismatched schema_version or a non-matching key is an error: the store
// holds artifacts this build cannot interpret.
func (s *Store) Get(k Key) (*Entry, error) {
	sh, a := s.sh, k.address()
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return nil, errClosed
	}
	l, ok := sh.idx[a]
	var err error
	if !ok {
		err = sh.refresh()
		l, ok = sh.idx[a]
	}
	sh.mu.Unlock()
	if !ok || err != nil {
		return nil, err
	}
	e, err := l.read()
	if err != nil {
		return nil, err
	}
	if e.Key != k {
		return nil, fmt.Errorf("store: %s at offset %d holds key %+v, expected %+v", l.seg.f.Name(), l.off, e.Key, k)
	}
	return e, nil
}

// read decodes the entry at l and checks its schema generation.
func (l loc) read() (*Entry, error) {
	buf := make([]byte, l.n)
	if _, err := l.seg.f.ReadAt(buf, l.off); err != nil {
		return nil, fmt.Errorf("store: reading %s: %v", l.seg.f.Name(), err)
	}
	where := fmt.Sprintf("%s at offset %d", l.seg.f.Name(), l.off)
	var e Entry
	if err := json.Unmarshal(buf, &e); err != nil {
		return nil, fmt.Errorf("store: decoding %s: %v", where, err)
	}
	if err := schema.Check(where, e.SchemaVersion); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &e, nil
}

// Put persists a successful cell result. v must round-trip through
// encoding/json unchanged (float64s and structs of exported fields do).
func (s *Store) Put(k Key, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding value for %+v: %v", k, err)
	}
	return s.write(Entry{SchemaVersion: schema.Version, Key: k, Status: StatusOK, Value: raw})
}

// PutInfeasible records a placement the scheme cannot host.
func (s *Store) PutInfeasible(k Key) error {
	return s.write(Entry{SchemaVersion: schema.Version, Key: k, Status: StatusInfeasible})
}

// PutError records a failed cell so a later run can report — or, under
// -resume, retry — it without consulting logs.
func (s *Store) PutError(k Key, msg string) error {
	return s.write(Entry{SchemaVersion: schema.Version, Key: k, Status: StatusError, Error: msg})
}

// writeAttempts bounds the attempts to append one entry; a write can fail
// transiently on shared filesystems.
const writeAttempts = 3

// write appends an entry to this process's segment and indexes it.
func (s *Store) write(e Entry) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding entry: %v", err)
	}
	sh := s.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	l, err := sh.append(append(data, '\n'))
	if err == nil {
		l.failed = e.Status == StatusError
		sh.note(e.Key, l)
	}
	return err
}

// append frames data onto the end of this process's segment, creating
// the segment first if need be, and returns where the payload lies. A
// failed attempt is truncated away before the next one: a torn frame
// left in the segment would hide every later entry from other readers.
// Callers hold sh.mu.
func (sh *shared) append(data []byte) (loc, error) {
	if sh.own == nil {
		name := fmt.Sprintf("%016x%s", rand.Uint64(), segExt)
		f, err := os.OpenFile(filepath.Join(sh.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return loc{}, fmt.Errorf("store: creating segment: %v", err)
		}
		sh.own = &segment{f: f}
		sh.segs[name] = sh.own
	}
	seg, frame := sh.own, journal.EncodeFrame(nil, data)
	var err error
	for attempt := 0; attempt < writeAttempts; attempt++ {
		if _, err = sh.writeAt(seg.f, frame, seg.end); err == nil {
			l := loc{seg: seg, off: seg.end + int64(len(frame)-len(data)), n: len(data)}
			seg.end += int64(len(frame))
			return l, nil
		}
		if terr := seg.f.Truncate(seg.end); terr != nil {
			err = fmt.Errorf("%v; truncating the torn frame: %v", err, terr)
		}
	}
	return loc{}, fmt.Errorf("store: appending entry after %d attempts: %v", writeAttempts, err)
}

// note indexes an entry. Within one segment the later frame wins (a
// retried cell's new status); across segments an ok or infeasible entry
// wins over an error entry, and otherwise the first one read stays.
// Callers hold sh.mu.
func (sh *shared) note(k Key, l loc) {
	a := k.address()
	if cur, ok := sh.idx[a]; ok && cur.seg != l.seg && !(cur.failed && !l.failed) {
		return
	}
	sh.idx[a] = l
}

// notePayload indexes the entry payload at l under the key it holds; a
// payload that is no entry is skipped. Callers hold sh.mu.
func (sh *shared) notePayload(l loc, p []byte) {
	var head struct {
		Key    Key    `json:"key"`
		Status string `json:"status"`
	}
	if json.Unmarshal(p, &head) == nil {
		l.failed = head.Status == StatusError
		sh.note(head.Key, l)
	}
}

// refresh indexes the intact frames other processes appended since the
// last refresh: the growth of their unsealed segments, and segments new
// to this process. Callers hold sh.mu.
func (sh *shared) refresh() error {
	if err := sh.list(); err != nil {
		return err
	}
	for _, seg := range sh.live {
		if err := sh.readTail(seg); err != nil {
			return err
		}
	}
	sh.live = slices.DeleteFunc(sh.live, func(seg *segment) bool { return seg.sealed })
	return nil
}

// mtimeSlack bounds the step in which a directory's mtime advances: a
// kernel tick on Linux filesystems. A listing is trusted to have seen
// every entry sharing its mtime only if it ran mtimeSlack after that
// mtime (two seconds after a whole-second mtime, which may come from a
// coarser filesystem), so an entry created later within the same step
// is listed by the next refresh.
const mtimeSlack = 50 * time.Millisecond

// list opens the segments new to this process and adopts entry files of
// the one-file-per-entry layout, unless the directory is unchanged since
// a trusted listing. Callers hold sh.mu.
func (sh *shared) list() error {
	now := time.Now()
	info, err := os.Stat(sh.dir)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	mod := info.ModTime()
	if sh.sure && mod.Equal(sh.listed) {
		return nil
	}
	ents, err := os.ReadDir(sh.dir)
	if err != nil {
		return fmt.Errorf("store: listing %s: %v", sh.dir, err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || sh.segs[name] != nil {
			continue
		}
		if len(name) == 2*sha256.Size+len(".json") && filepath.Ext(name) == ".json" {
			if err := sh.adopt(name); err != nil {
				return err
			}
			continue
		}
		if filepath.Ext(name) != segExt {
			continue
		}
		f, err := os.Open(filepath.Join(sh.dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: opening segment: %v", err)
		}
		sh.segs[name] = &segment{f: f}
		sh.live = append(sh.live, sh.segs[name])
	}
	slack := mtimeSlack
	if mod.Nanosecond() == 0 {
		slack = 2 * time.Second
	}
	sh.listed, sh.sure = mod, now.Sub(mod) >= slack
	return nil
}

// adopt moves an entry file of the one-file-per-entry layout into this
// process's segment: the file is the payload, byte for byte. Callers
// hold sh.mu.
func (sh *shared) adopt(name string) error {
	path := filepath.Join(sh.dir, name)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // another process adopted it
	}
	if err != nil {
		return fmt.Errorf("store: reading %s: %v", path, err)
	}
	l, err := sh.append(data)
	if err != nil {
		return err
	}
	sh.notePayload(l, data)
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %v", err)
	}
	return nil
}

// tailChunk is how much of a segment readTail reads at a time, so that
// indexing a large store does not hold all of it in memory at once.
const tailChunk = 64 << 10

// readTail indexes the intact frames past seg.end and notes a seal. A
// torn or corrupt frame stops it — the cells behind it are misses — and
// the next refresh that finds the file grown starts again from the same
// offset, in case the frame was still being written.
func (sh *shared) readTail(seg *segment) error {
	info, err := seg.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	size := info.Size()
	if size == seg.seen {
		return nil
	}
	buf := make([]byte, min(tailChunk, max(size-seg.end, 0)))
	var lenBuf [binary.MaxVarintLen64]byte
	for seg.end < size {
		n, err := seg.f.ReadAt(buf[:min(int64(len(buf)), size-seg.end)], seg.end)
		if err != nil && err != io.EOF {
			return fmt.Errorf("store: reading %s: %v", seg.f.Name(), err)
		}
		payloads, valid := journal.DecodeFrames(buf[:n])
		if valid == 0 {
			// Read on only for a frame that is longer than the buffer and
			// fits in the file; any other frame is torn or corrupt.
			l, k := binary.Uvarint(buf[:n])
			if need := int64(k) + 4 + int64(l); k > 0 && l < uint64(size) && need > int64(n) && need <= size-seg.end {
				buf = make([]byte, need)
				continue
			}
			break
		}
		for _, p := range payloads {
			off := seg.end + int64(binary.PutUvarint(lenBuf[:], uint64(len(p)))+4)
			if len(p) == 0 {
				seg.sealed = true
			}
			sh.notePayload(loc{seg: seg, off: off, n: len(p)}, p)
			seg.end = off + int64(len(p))
		}
	}
	seg.seen = size
	return nil
}

// List decodes every entry in the store, sorted by content address so
// the order is deterministic. Entries from another schema generation are
// an error. Calibration (mcbench -calibrate) walks the store through
// this.
func (s *Store) List() ([]Entry, error) {
	type addressed struct {
		a address
		l loc
	}
	var all []addressed
	err := s.refreshed(func(idx map[address]loc) {
		for a, l := range idx {
			all = append(all, addressed{a, l})
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].a[:], all[j].a[:]) < 0 })
	out := make([]Entry, 0, len(all))
	for _, x := range all {
		e, err := x.l.read()
		if err != nil {
			return nil, err
		}
		out = append(out, *e)
	}
	return out, nil
}

// Len counts the distinct keys stored.
func (s *Store) Len() (n int, err error) {
	err = s.refreshed(func(idx map[address]loc) { n = len(idx) })
	return n, err
}

// refreshed refreshes the index and hands it to fn under the lock.
func (s *Store) refreshed(fn func(map[address]loc)) error {
	sh := s.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	if err := sh.refresh(); err != nil {
		return err
	}
	fn(sh.idx)
	return nil
}
