// Package journal is the coordinator's crash-safe persistence layer: an
// append-only record log (journal.wal) plus a periodically rewritten
// snapshot (snapshot.json). Records are opaque byte payloads framed as
//
//	uvarint(len(payload)) | crc32(payload) LE | payload
//
// so a torn tail — a crash mid-write — is detected and discarded up to
// the last intact record. The snapshot/journal pair recovers in two
// steps: load the snapshot, then replay every journal record on top.
// Replay must therefore be idempotent against the snapshot: a crash
// between the snapshot rename and the journal truncation leaves old
// records in the journal that the snapshot already reflects.
//
// The result store (internal/store) frames its log segments with the
// same EncodeFrame and DecodeFrames.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

const (
	walName  = "journal.wal"
	snapName = "snapshot.json"
)

// Journal is an open state directory. Append/Sync/Snapshot are safe for
// concurrent use.
type Journal struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	dirty   bool // bytes appended since the last Sync
	records int  // records appended since the last Snapshot
}

// Open loads a state directory, returning the snapshot bytes (nil if no
// snapshot was ever taken) and every intact journal record appended
// since it. A torn or corrupt journal tail is truncated away so new
// appends extend the valid prefix.
func Open(dir string) (j *Journal, snapshot []byte, records [][]byte, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("journal: creating state dir: %v", err)
	}
	snapshot, err = os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, nil, nil, fmt.Errorf("journal: reading snapshot: %v", err)
		}
		snapshot = nil
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, nil, fmt.Errorf("journal: reading journal: %v", err)
	}
	records, valid := DecodeFrames(data)
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("journal: opening journal: %v", err)
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("journal: truncating torn tail: %v", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return &Journal{dir: dir, f: f, records: len(records)}, snapshot, records, nil
}

// Append frames one record onto the journal. The write reaches the OS
// immediately (no userspace buffering, so an in-process crash loses
// nothing); call Sync to force it to stable storage.
func (j *Journal) Append(payload []byte) error {
	frame := EncodeFrame(nil, payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: appending record: %v", err)
	}
	j.dirty = true
	j.records++
	return nil
}

// Sync flushes appended records to stable storage. Losing unsynced tail
// records on power failure is safe by design — replay is idempotent and
// completed results live in the content-addressed store — so callers
// batch Syncs rather than paying an fsync per record.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %v", err)
	}
	j.dirty = false
	return nil
}

// Records reports how many records were appended (or replayed at Open)
// since the last Snapshot — the compaction trigger.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Snapshot atomically replaces the snapshot with state and truncates the
// journal. Crash ordering: the tmp+rename makes the new snapshot appear
// atomically; if the process dies before the truncation, Open replays
// the stale journal records onto the new snapshot, which idempotent
// replay absorbs.
func (j *Journal) Snapshot(state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	tmp := filepath.Join(j.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot tmp: %v", err)
	}
	if _, err := f.Write(state); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: writing snapshot: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: publishing snapshot: %v", err)
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncating after snapshot: %v", err)
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return err
	}
	j.dirty = false
	j.records = 0
	return nil
}

// Close syncs and releases the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// EncodeFrame appends one framed record to dst and returns the extended
// slice. The framing is self-delimiting and checksummed; see the package
// comment.
func EncodeFrame(dst, payload []byte) []byte {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	dst = append(dst, lenBuf[:n]...)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	dst = append(dst, crcBuf[:]...)
	return append(dst, payload...)
}

// DecodeFrames splits data into framed record payloads, stopping at the
// first truncated, corrupt, or non-canonical frame. It returns the
// payloads (sub-slices of data) and the byte length of the valid prefix;
// everything past it is a torn tail to discard. For any input,
// re-encoding the returned payloads reproduces data[:valid] exactly.
func DecodeFrames(data []byte) (payloads [][]byte, valid int) {
	var lenBuf [binary.MaxVarintLen64]byte
	for valid < len(data) {
		l, n := binary.Uvarint(data[valid:])
		if n <= 0 || binary.PutUvarint(lenBuf[:], l) != n {
			return payloads, valid // truncated or non-canonical length
		}
		rest := data[valid+n:]
		if uint64(len(rest)) < 4 || l > uint64(len(rest)-4) {
			return payloads, valid // truncated frame
		}
		payload := rest[4 : 4+l]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[:4]) {
			return payloads, valid // corrupt payload
		}
		payloads = append(payloads, payload)
		valid += n + 4 + int(l)
	}
	return payloads, valid
}
