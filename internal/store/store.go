package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrTooLarge is returned by Put and PutGroup when a single record
// exceeds the store's byte budget; nothing is stored.
var ErrTooLarge = errors.New("store: record exceeds byte budget")

const (
	// segmentSuffix names the store's files: one or more framed records
	// concatenated back to back, committed with a single fsync. See
	// PutGroup.
	segmentSuffix = ".seg"
	// legacySuffix names the one-record-per-key files older stores wrote.
	// Their bytes are exactly a one-record segment, so Open scans them as
	// segments; nothing writes them any more.
	legacySuffix = ".rec"
	tempSuffix   = ".tmp"
	// QuarantineDir is the subdirectory corrupt records are moved into.
	// They are kept (not deleted) so an operator can inspect what went
	// wrong; nothing under it is ever read back.
	QuarantineDir = "quarantine"
)

// Store is a disk-backed result store: framed, checksummed records
// committed in segment files, indexed in memory by canonical key, bounded
// by an on-disk byte budget with LRU eviction. All methods are safe for
// concurrent use. There is no background goroutine and nothing to close:
// every commit is durable (fsync + atomic rename) before it returns.
type Store struct {
	dir      string
	maxBytes int64
	// fsyncs counts fsync syscalls issued since Open (segment files and
	// directory syncs alike). The campaign benchmark reads it to prove
	// group commit's amortization; it is written with atomics because
	// commits sync outside the index lock.
	fsyncs atomic.Uint64

	mu       sync.Mutex
	entries  map[string]*list.Element // key → element holding *record
	order    *list.List               // front = most recently used
	segments map[string]*segment      // segment file name → shared state
	bytes    int64
	// quarantined counts quarantine events (rejected segment files and
	// segment tails) since Open; exposed for tests and operator
	// visibility.
	quarantined uint64
}

// record is the index entry for one stored record: the [off, off+size)
// slice of a segment file.
type record struct {
	key  string
	size int64
	off  int64 // byte offset within the segment file
	seg  *segment
}

// segment tracks one committed file. Its records evict independently
// (each has its own index entry and LRU position); the file itself is
// deleted when the last live record leaves the index. Until then evicted
// record bytes remain on disk — the byte budget tracks live records, so a
// segment's disk footprint can transiently exceed its accounted share.
type segment struct {
	name string
	live int
}

// Open creates or recovers a store rooted at dir. maxBytes bounds the
// total size of live records (<= 0 means unlimited). Recovery scans the
// directory: leftover temp files from interrupted writes are deleted,
// records that decode cleanly are indexed (oldest first, so pre-crash
// recency survives approximately via mtime), and damaged bytes are moved
// to the quarantine subdirectory — a store with arbitrarily mangled files
// always opens cleanly.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		segments: make(map[string]*segment),
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type found struct {
		rec   record
		mtime int64
	}
	var live []found
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		switch {
		case strings.HasSuffix(name, tempSuffix):
			// An interrupted commit never reached its rename; the final
			// segment (if any) is intact, the temp file is garbage.
			os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, segmentSuffix), strings.HasSuffix(name, legacySuffix):
			recs := s.scanSegment(name)
			info, err := de.Info()
			if err != nil {
				continue
			}
			for _, rec := range recs {
				live = append(live, found{rec: rec, mtime: info.ModTime().UnixNano()})
			}
		}
	}
	// Index oldest-first so the LRU back holds the stalest records. The
	// stable sort keeps a segment's records in offset order among
	// themselves (they share one mtime).
	sort.SliceStable(live, func(i, j int) bool { return live[i].mtime < live[j].mtime })
	for _, f := range live {
		rec := f.rec
		// Count the slot before retiring the one it replaces, as PutGroup
		// does, so a replace within one segment never empties it.
		rec.seg.live++
		if old, ok := s.entries[rec.key]; ok {
			// A key repeated inside one segment is PutGroup's last-wins
			// replace. Two files claiming one key are a replace whose old
			// slot is still on disk, because its segment holds other live
			// records or the replace was cut short before deleting it.
			// Either way the newer record wins and the older slot retires
			// like any replaced one: nothing is damaged, so nothing is
			// quarantined, and a segment left without live records goes.
			s.dropLocked(old, false)
		}
		s.entries[rec.key] = s.order.PushFront(&rec)
		s.bytes += rec.size
	}
	s.evictLocked()
	return s, nil
}

// scanSegment decodes a segment file front to back and returns index
// entries for its valid prefix. A decode failure mid-file means the tail
// was torn (a crash between appends and the segment fsync cannot happen —
// the whole file is staged and renamed — but bit rot and operator
// truncation can): the valid prefix stays live, the tail is preserved
// under quarantine, and the file is truncated to the prefix so the next
// scan is clean. A file with no valid prefix — its first record is bad,
// or it is empty, which no commit writes — is quarantined whole.
func (s *Store) scanSegment(name string) []record {
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	seg := &segment{name: name}
	var recs []record
	off := 0
	for off < len(data) {
		e, n, err := decodeRecordAt(data[off:])
		if err != nil {
			break
		}
		recs = append(recs, record{key: e.Key, size: int64(n), off: int64(off), seg: seg})
		off += n
	}
	if off == 0 {
		s.quarantine(name)
		return nil
	}
	if off < len(data) {
		// Tail-only quarantine: preserve the undecodable suffix for
		// inspection, keep the valid prefix serving.
		s.quarantined++
		s.quarantineBytes(name+".tail", data[off:])
		if err := os.Truncate(path, int64(off)); err != nil {
			// Cannot shrink the file; without a clean prefix boundary on
			// disk, retire the whole segment rather than risk re-reading
			// the torn tail.
			s.quarantineBytes(name, data[:off])
			os.Remove(path)
			return nil
		}
	}
	s.segments[name] = seg
	return recs
}

// decodeRecordAt decodes one framed record from the head of data,
// returning the record and the number of bytes it occupied.
func decodeRecordAt(data []byte) (Entry, int, error) {
	if len(data) < headerSize {
		return Entry{}, 0, fmt.Errorf("%w: %d bytes short of a header", ErrCorrupt, len(data))
	}
	n := headerSize + int(binary.LittleEndian.Uint32(data[4:8]))
	if n > len(data) {
		return Entry{}, 0, fmt.Errorf("%w: record of %d bytes overruns %d remaining", ErrCorrupt, n, len(data))
	}
	e, err := DecodeEntry(data[:n])
	if err != nil {
		return Entry{}, 0, err
	}
	return e, n, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of live (indexed, non-quarantined) records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the total on-disk size of live records.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Quarantined returns the number of records rejected since Open.
func (s *Store) Quarantined() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// Fsyncs returns the number of fsync syscalls issued since Open. Every
// commit costs two (segment file + directory), whether it holds one
// entry or a whole group — the amortization the campaign benchmark
// measures.
func (s *Store) Fsyncs() uint64 { return s.fsyncs.Load() }

// Keys returns the keys of live records that start with prefix, sorted
// lexicographically (the iteration order of the in-memory index is
// arbitrary; a sorted answer makes callers — the sweep-job recovery scan
// — deterministic). An empty prefix lists every key.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.entries {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Delete removes the record stored under key from the index and from
// disk. Deleting an absent key is a no-op. The jobs manager uses it to
// retire a sweep job's spec record once every unit has completed, so
// restarts stop re-materializing finished jobs.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.dropLocked(el, false)
	}
}

// Get returns the entry stored under key. ok reports whether a valid
// entry was served. A record that fails integrity checks at read time —
// truncated, rewritten or deleted behind the store's back — is quarantined
// and reported as a miss with a non-nil error; the caller recomputes and
// the bad bytes are never served. Any other read error (descriptor
// exhaustion, say) says nothing about the bytes on disk: it is reported
// as a miss too, but the record stays indexed for the next Get.
func (s *Store) Get(key string) (e Entry, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, found := s.entries[key]
	if !found {
		return Entry{}, false, nil
	}
	rec := el.Value.(*record)
	e, err = s.readIndexed(rec)
	if err == nil && e.Key != key {
		err = fmt.Errorf("%w: record holds key %q, index expected %q", ErrCorrupt, e.Key, key)
	}
	if err != nil {
		if errors.Is(err, ErrCorrupt) || errors.Is(err, fs.ErrNotExist) {
			// A segment that fails integrity behind our back is suspect as
			// a whole: its framing can no longer be trusted, so retire
			// every record it holds, not just this one.
			s.quarantineSegmentLocked(rec.seg)
		}
		return Entry{}, false, err
	}
	s.order.MoveToFront(el)
	return e, true, nil
}

// Put durably stores e under e.Key, replacing any previous record for
// the key: a group commit of one entry (see PutGroup).
func (s *Store) Put(e Entry) error { return s.PutGroup([]Entry{e}) }

// PutGroup durably stores every entry in one group commit, replacing any
// previous record for each key, then evicts least-recently-used records
// until the byte budget holds again. The records are concatenated into a
// single segment file, staged under a temporary name, flushed with one
// fsync, and renamed into place: a kill at any instant leaves either
// none of the group or all of it under the final name, never a torn
// file, at two fsyncs per group. Each entry keeps its own canonical key,
// index slot, and LRU position; lookups are oblivious to which commit a
// record arrived in.
//
// The segment file is content-addressed (named by the hash of its bytes),
// so re-committing an identical group is idempotent, and distinct groups
// can never collide on disk.
func (s *Store) PutGroup(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	blobs := make([][]byte, len(entries))
	var total int64
	for i, e := range entries {
		blobs[i] = EncodeEntry(e)
		if s.maxBytes > 0 && int64(len(blobs[i])) > s.maxBytes {
			return fmt.Errorf("%w: %d bytes > budget %d (key %s)",
				ErrTooLarge, len(blobs[i]), s.maxBytes, e.Key)
		}
		total += int64(len(blobs[i]))
	}
	h := sha256.New()
	for _, b := range blobs {
		h.Write(b)
	}
	name := hex.EncodeToString(h.Sum(nil)) + segmentSuffix
	data := make([]byte, 0, total)
	for _, b := range blobs {
		data = append(data, b...)
	}
	if err := s.writeFile(name, data); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	seg, ok := s.segments[name]
	if !ok {
		seg = &segment{name: name}
		s.segments[name] = seg
	}
	// Count the new slots before retiring replaced ones: an identical
	// re-commit reuses this content-addressed segment, and retiring its
	// old slots first could take live to 0 and delete the file that
	// writeFile has just renamed into place.
	seg.live += len(entries)
	var off int64
	for i, e := range entries {
		size := int64(len(blobs[i]))
		if el, dup := s.entries[e.Key]; dup {
			// Replaced by this commit: a slot in an earlier segment or —
			// for duplicate keys within one group — the slot indexed a
			// moment ago (last wins, like repeated Put).
			s.dropLocked(el, false)
		}
		s.entries[e.Key] = s.order.PushFront(&record{key: e.Key, size: size, off: off, seg: seg})
		s.bytes += size
		off += size
	}
	s.evictLocked()
	return nil
}

// writeFile stages data under a temporary name, fsyncs it, renames it to
// name, and fsyncs the directory — the store's durable-write protocol.
func (s *Store) writeFile(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "put-*"+tempSuffix)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err == nil {
		if err = tmp.Sync(); err == nil {
			s.fsyncs.Add(1)
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(s.dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if syncDir(s.dir) {
		s.fsyncs.Add(1)
	}
	return nil
}

// evictLocked removes least-recently-used records until bytes fits the
// budget. Callers hold s.mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes {
		oldest := s.order.Back()
		if oldest == nil {
			return
		}
		s.dropLocked(oldest, false)
	}
}

// dropLocked removes a record's index slot. The segment file lives until
// its last record leaves, then is deleted — or moved whole to quarantine
// when the drop was integrity-motivated, which preserves the bytes for
// inspection.
func (s *Store) dropLocked(el *list.Element, quarantine bool) {
	rec := el.Value.(*record)
	s.order.Remove(el)
	delete(s.entries, rec.key)
	s.bytes -= rec.size
	rec.seg.live--
	if rec.seg.live > 0 {
		if quarantine {
			s.quarantined++
		}
		return
	}
	delete(s.segments, rec.seg.name)
	if quarantine {
		s.quarantine(rec.seg.name)
	} else {
		os.Remove(filepath.Join(s.dir, rec.seg.name))
	}
}

// quarantineSegmentLocked retires a whole segment: every index entry
// pointing into it is dropped and the file is preserved under quarantine.
// Used when a read-time integrity failure shows the file was mangled
// behind the store's back, which taints its other records' framing too.
func (s *Store) quarantineSegmentLocked(seg *segment) {
	var doomed []*list.Element
	for el := s.order.Front(); el != nil; el = el.Next() {
		if el.Value.(*record).seg == seg {
			doomed = append(doomed, el)
		}
	}
	for _, el := range doomed {
		rec := el.Value.(*record)
		s.order.Remove(el)
		delete(s.entries, rec.key)
		s.bytes -= rec.size
		seg.live--
	}
	delete(s.segments, seg.name)
	s.quarantine(seg.name)
}

// quarantine moves a file into the quarantine subdirectory (best
// effort: a file that cannot be moved is deleted so it can never be
// indexed again).
func (s *Store) quarantine(name string) {
	s.quarantined++
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(filepath.Join(s.dir, name), filepath.Join(qdir, name)) == nil {
			return
		}
	}
	os.Remove(filepath.Join(s.dir, name))
}

// readIndexed reads and decodes the segment slice an index entry points
// at.
func (s *Store) readIndexed(rec *record) (Entry, error) {
	f, err := os.Open(filepath.Join(s.dir, rec.seg.name))
	if err != nil {
		return Entry{}, err
	}
	defer f.Close()
	buf := make([]byte, rec.size)
	if _, err := f.ReadAt(buf, rec.off); err != nil {
		return Entry{}, fmt.Errorf("%w: segment read at %d+%d: %v", ErrCorrupt, rec.off, rec.size, err)
	}
	return DecodeEntry(buf)
}

// quarantineBytes writes raw bytes (a torn segment tail) into the
// quarantine directory under the given name; best effort.
func (s *Store) quarantineBytes(name string, data []byte) {
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	os.WriteFile(filepath.Join(qdir, name), data, 0o644)
}

// syncDir fsyncs a directory so a completed rename survives power loss,
// reporting whether the sync happened. Best effort: some platforms/
// filesystems reject directory fsync, and a lost rename only costs a
// recompute.
func syncDir(dir string) bool {
	d, err := os.Open(dir)
	if err != nil {
		return false
	}
	err = d.Sync()
	d.Close()
	return err == nil
}
