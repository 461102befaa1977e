package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Fault-injection suite: every way a segment file can be damaged —
// truncated at any byte, any single bit flipped, a write interrupted
// before its rename — must leave the store serving only intact data.
// The invariant under test is absolute: a damaged record is quarantined,
// never decoded into a response.

// writeSegmentFile plants raw bytes as a segment file in dir.
func writeSegmentFile(t *testing.T, dir string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, "planted-"+fmt.Sprint(len(data))+segmentSuffix)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// quarantineCount counts files under dir's quarantine subdirectory.
func quarantineCount(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, QuarantineDir))
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// sampleRecord returns the encoded bytes of a representative entry.
func sampleRecord() ([]byte, Entry) {
	e := Entry{
		Key:         "spec:deadbeefcafe",
		ContentType: "application/json",
		Events:      987654321,
		Body:        []byte(`{"l":50,"w":20,"intra_skew_ns":{"avg":0.5029840000000003}}` + "\n"),
	}
	return EncodeEntry(e), e
}

// TestTruncatedAtEveryOffsetQuarantined cuts a valid one-record segment
// at every possible byte offset and opens a store over each stump: no
// prefix of a record may ever be indexed or served. The empty stump
// (cut=0) counts too: no commit writes an empty file.
func TestTruncatedAtEveryOffsetQuarantined(t *testing.T) {
	data, want := sampleRecord()
	for cut := 0; cut < len(data); cut++ {
		dir := t.TempDir()
		writeSegmentFile(t, dir, data[:cut])
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if s.Len() != 0 {
			t.Fatalf("cut=%d: truncated record was indexed", cut)
		}
		if got := s.Quarantined(); got != 1 {
			t.Fatalf("cut=%d: quarantined = %d, want 1", cut, got)
		}
		if n := quarantineCount(t, dir); n != 1 {
			t.Fatalf("cut=%d: quarantine dir holds %d files, want 1", cut, n)
		}
		mustMiss(t, s, want.Key)
	}

	// Sanity: the uncut record is indexed and served intact.
	dir := t.TempDir()
	writeSegmentFile(t, dir, data)
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, s, want.Key); !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("full record body = %q, want %q", got.Body, want.Body)
	}
}

// TestEveryBitFlipRejected flips each bit of a valid record in turn;
// the CRC32C (payload) or the header checks (magic, length, stored CRC)
// must reject every single-bit corruption.
func TestEveryBitFlipRejected(t *testing.T) {
	data, want := sampleRecord()
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), data...)
			flipped[i] ^= 1 << bit
			if _, err := DecodeEntry(flipped); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d bit %d: DecodeEntry err = %v, want ErrCorrupt", i, bit, err)
			}
		}
	}

	// Through the store: a flipped record is quarantined at scan time.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x10
	dir := t.TempDir()
	writeSegmentFile(t, dir, flipped)
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Quarantined() != 1 {
		t.Fatalf("flipped record: len=%d quarantined=%d, want 0/1", s.Len(), s.Quarantined())
	}
	mustMiss(t, s, want.Key)
}

// TestKillDuringWriteLeavesOldRecordIntact simulates a crash at the two
// vulnerable instants of the temp-file-and-rename protocol: after the
// temp file is (partially or fully) written but before the rename. The
// previous record for the key must survive untouched and the temp
// debris must be collected on the next Open.
func TestKillDuringWriteLeavesOldRecordIntact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := entry("k", "committed value")
	mustPut(t, s, old)

	// Crash 1: temp file holds a torn prefix of the replacement record.
	replacement := EncodeEntry(entry("k", "replacement value that never committed"))
	if err := os.WriteFile(filepath.Join(dir, "put-crash1"+tempSuffix), replacement[:len(replacement)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash 2: temp file is complete, but the rename never happened.
	if err := os.WriteFile(filepath.Join(dir, "put-crash2"+tempSuffix), replacement, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("recovered %d records, want 1", s2.Len())
	}
	if got := mustGet(t, s2, "k"); string(got.Body) != "committed value" {
		t.Fatalf("body after crash recovery = %q, want the committed value", got.Body)
	}
	// The debris is gone: no temp files remain anywhere in the dir.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), tempSuffix) {
			t.Fatalf("temp file %s survived recovery", de.Name())
		}
	}
	if got := s2.Quarantined(); got != 0 {
		t.Fatalf("crash debris was quarantined as records: %d", got)
	}
}

// TestReadTimeCorruptionQuarantined damages a record after it was
// indexed: the next Get must detect it, quarantine the file, and report
// a miss rather than serve the damaged bytes.
func TestReadTimeCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, entry("k", "a body long enough to truncate meaningfully"))

	path := recordPath(t, s, "k")
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}

	_, ok, err := s.Get("k")
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on truncated record: ok=%v err=%v, want corrupt miss", ok, err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("corrupt record still accounted: len=%d bytes=%d", s.Len(), s.Bytes())
	}
	if n := quarantineCount(t, dir); n != 1 {
		t.Fatalf("quarantine holds %d files, want 1", n)
	}
	// The store keeps working: the key can be recomputed and re-stored.
	mustPut(t, s, entry("k", "recomputed"))
	if got := mustGet(t, s, "k"); string(got.Body) != "recomputed" {
		t.Fatalf("re-stored body = %q", got.Body)
	}
}

// TestScanQuarantinesMixedDirectory mixes valid, truncated, bit-flipped,
// and foreign files in one directory and opens it: the good records
// survive, everything damaged is quarantined, foreign files are left
// alone, and the store still serves and accepts writes.
func TestScanQuarantinesMixedDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	good1, good2 := entry("good:1", "first good body"), entry("good:2", "second good body")
	mustPut(t, s, good1)
	mustPut(t, s, good2)

	bad := EncodeEntry(entry("bad:1", "to be damaged"))
	writeSegmentFile(t, dir, bad[:len(bad)-3])
	flipped := EncodeEntry(entry("bad:2", "also damaged"))
	flipped[headerSize+2] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, "flipped"+segmentSuffix), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	// A foreign file without a store suffix is none of our business.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 || s2.Quarantined() != 2 {
		t.Fatalf("len=%d quarantined=%d, want 2/2", s2.Len(), s2.Quarantined())
	}
	mustGet(t, s2, "good:1")
	mustGet(t, s2, "good:2")
	mustMiss(t, s2, "bad:1")
	mustMiss(t, s2, "bad:2")
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatalf("foreign file was touched: %v", err)
	}
	mustPut(t, s2, entry("bad:1", "recomputed after quarantine"))
	mustGet(t, s2, "bad:1")
}

// TestLegacyRecordFilesServed opens a store written by older versions,
// which kept each record in its own <sha256(key)>.rec file. Such a file's
// bytes are exactly a one-record segment, so every record — the sweep
// job's spec record included, which cannot be recomputed — must be
// served byte-identically without a quarantine. Replacing or evicting a
// legacy record deletes its file, and a damaged legacy file is
// quarantined like a damaged segment.
func TestLegacyRecordFilesServed(t *testing.T) {
	dir := t.TempDir()
	// Equal key and body lengths give the legacy records one size, and
	// each fresh record below is no larger, so the budget evicts exactly
	// one record per new key.
	keys := []string{"run:legacy-a", "run:legacy-b", "job:sweep-01", "run:legacy-c"}
	planted := make(map[string][]byte)
	base := time.Now().Add(-time.Hour)
	for i, key := range keys {
		data := EncodeEntry(entry(key, "legacy body of "+key))
		planted[key] = data
		path := legacyPath(dir, key)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Oldest first, so the recovered LRU order is keys' order.
		mtime := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	size := int64(len(planted[keys[0]]))
	s, err := Open(dir, int64(len(keys))*size)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(keys) || s.Quarantined() != 0 || s.Bytes() != int64(len(keys))*size {
		t.Fatalf("legacy open: len=%d quarantined=%d bytes=%d, want %d/0/%d",
			s.Len(), s.Quarantined(), s.Bytes(), len(keys), int64(len(keys))*size)
	}
	for _, key := range keys {
		if got := EncodeEntry(mustGet(t, s, key)); !bytes.Equal(got, planted[key]) {
			t.Fatalf("legacy record %q not served byte-identically", key)
		}
	}

	// Replacing a legacy record deletes its file; the new value is a
	// segment.
	mustPut(t, s, entry("run:legacy-b", "fresh body of run:legacy-b"))
	if _, err := os.Stat(legacyPath(dir, "run:legacy-b")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("replaced legacy file still on disk: %v", err)
	}
	// A new key evicts the least recently used record, run:legacy-a
	// (read first above), and its file with it.
	mustPut(t, s, entry("run:fresh-01", "fresh body of run:fresh-01"))
	mustMiss(t, s, "run:legacy-a")
	if _, err := os.Stat(legacyPath(dir, "run:legacy-a")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("evicted legacy file still on disk: %v", err)
	}

	// Damaged legacy files next to the survivors: a truncated one and a
	// bit-flipped one are quarantined whole; the rest keep serving.
	truncated := EncodeEntry(entry("run:legacy-t", "legacy body of run:legacy-t"))
	flipped := EncodeEntry(entry("run:legacy-f", "legacy body of run:legacy-f"))
	flipped[len(flipped)/2] ^= 0x10
	for key, data := range map[string][]byte{"run:legacy-t": truncated[:len(truncated)-5], "run:legacy-f": flipped} {
		if err := os.WriteFile(legacyPath(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(keys) || s2.Quarantined() != 2 || quarantineCount(t, dir) != 2 {
		t.Fatalf("reopen: len=%d quarantined=%d quarantine files=%d, want %d/2/2",
			s2.Len(), s2.Quarantined(), quarantineCount(t, dir), len(keys))
	}
	for _, key := range []string{"job:sweep-01", "run:legacy-c"} {
		if got := EncodeEntry(mustGet(t, s2, key)); !bytes.Equal(got, planted[key]) {
			t.Fatalf("legacy record %q not served byte-identically after reopen", key)
		}
	}
	mustMiss(t, s2, "run:legacy-t")
	mustMiss(t, s2, "run:legacy-f")
}

// legacyPath is where older versions kept key's record: a file named by
// the SHA-256 of the key.
func legacyPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+legacySuffix)
}
