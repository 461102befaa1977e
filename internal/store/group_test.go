package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Group-commit suite: PutGroup must give every record of a batch its own
// durability, lookup, recovery, and eviction semantics, at two fsyncs per
// group instead of two per record — and a damaged segment may cost at
// most its torn tail, never its valid prefix.

// groupEntries builds n distinct entries with recognizable bodies.
func groupEntries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = entry(fmt.Sprintf("run:group-%03d", i), fmt.Sprintf("group body %03d with some padding", i))
	}
	return es
}

// segmentPath returns the path of the single .seg file in the store dir,
// failing if there is not exactly one.
func segmentPath(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), segmentSuffix) {
			segs = append(segs, de.Name())
		}
	}
	if len(segs) != 1 {
		t.Fatalf("store dir holds %d segment files, want 1: %v", len(segs), segs)
	}
	return filepath.Join(dir, segs[0])
}

func TestPutGroupRoundTripAndFsyncAmortization(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	es := groupEntries(64)
	if err := s.PutGroup(es); err != nil {
		t.Fatal(err)
	}
	if got := s.Fsyncs(); got > 2 {
		t.Fatalf("group of 64 cost %d fsyncs, want <= 2", got)
	}
	if s.Len() != 64 {
		t.Fatalf("Len = %d, want 64", s.Len())
	}
	for _, e := range es {
		got := mustGet(t, s, e.Key)
		if !bytes.Equal(got.Body, e.Body) || got.Events != e.Events || got.ContentType != e.ContentType {
			t.Fatalf("record %q round-trip mismatch", e.Key)
		}
	}
	// A Put is a group of one: it still costs 2 fsyncs.
	base := s.Fsyncs()
	mustPut(t, s, entry("run:solo", "standalone"))
	if got := s.Fsyncs() - base; got != 2 {
		t.Fatalf("single Put cost %d fsyncs, want 2", got)
	}
}

func TestPutGroupSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	es := groupEntries(8)
	if err := s.PutGroup(es); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 8 || s2.Quarantined() != 0 {
		t.Fatalf("reopen: len=%d quarantined=%d, want 8/0", s2.Len(), s2.Quarantined())
	}
	for _, e := range es {
		got := mustGet(t, s2, e.Key)
		if !bytes.Equal(got.Body, e.Body) {
			t.Fatalf("record %q differs after reopen", e.Key)
		}
	}
}

func TestPutGroupReplacesAndIsReplaced(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A single Put's record replaced by a group member…
	mustPut(t, s, entry("k1", "old standalone"))
	soloPath := recordPath(t, s, "k1")
	if err := s.PutGroup([]Entry{entry("k1", "from group"), entry("k2", "also from group")}); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, s, "k1"); string(got.Body) != "from group" {
		t.Fatalf("k1 = %q, want the group's value", got.Body)
	}
	if _, err := os.Stat(soloPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("replaced one-entry segment still on disk: %v", err)
	}
	groupPath := recordPath(t, s, "k1")
	// …and a group member replaced by a single Put.
	mustPut(t, s, entry("k2", "new standalone"))
	if got := mustGet(t, s, "k2"); string(got.Body) != "new standalone" {
		t.Fatalf("k2 = %q, want the standalone value", got.Body)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, err := os.Stat(groupPath); err != nil {
		t.Fatalf("group segment with a live record is gone: %v", err)
	}
	// Replacing the last group member retires the segment file.
	mustPut(t, s, entry("k1", "newer standalone"))
	if _, err := os.Stat(groupPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("dead group segment survived: %v", err)
	}
	// Re-committing an identical group over its own previous segment is
	// idempotent (content-addressed name).
	es := groupEntries(4)
	if err := s.PutGroup(es); err != nil {
		t.Fatal(err)
	}
	if err := s.PutGroup(es); err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		mustGet(t, s, e.Key)
	}
}

// TestPutGroupRecommitAfterPartialDelete re-commits an identical group
// whose segment has lost a record: the commit reuses the content-addressed
// segment, and retiring the surviving old slot must not delete the file it
// has just renamed into place.
func TestPutGroupRecommitAfterPartialDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	es := groupEntries(2)
	if err := s.PutGroup(es); err != nil {
		t.Fatal(err)
	}
	s.Delete(es[1].Key)
	if err := s.PutGroup(es); err != nil {
		t.Fatal(err)
	}
	check := func(label string, st *Store) {
		t.Helper()
		if st.Len() != 2 || st.Quarantined() != 0 {
			t.Fatalf("%s: len=%d quarantined=%d, want 2/0", label, st.Len(), st.Quarantined())
		}
		for _, e := range es {
			got, ok, err := st.Get(e.Key)
			if err != nil || !ok {
				t.Fatalf("%s: Get(%q) ok=%v err=%v", label, e.Key, ok, err)
			}
			if !bytes.Equal(got.Body, e.Body) {
				t.Fatalf("%s: record %q differs", label, e.Key)
			}
		}
	}
	check("live", s)
	segmentPath(t, dir)

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("reopen", s2)
}

func TestPutGroupEvictionBudget(t *testing.T) {
	dir := t.TempDir()
	// Budget fits roughly half the group: the oldest group records must
	// evict, the newest survive, and accounting must stay exact.
	es := groupEntries(16)
	var one int64
	for _, e := range es {
		if n := int64(len(EncodeEntry(e))); n > one {
			one = n
		}
	}
	budget := one * 8
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutGroup(es); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() > budget {
		t.Fatalf("Bytes = %d exceeds budget %d", s.Bytes(), budget)
	}
	if s.Len() == 0 || s.Len() >= 16 {
		t.Fatalf("Len = %d, want partial survival under the budget", s.Len())
	}
	// The newest records (pushed last, so most recently used) survive.
	mustGet(t, s, es[15].Key)
	mustMiss(t, s, es[0].Key)
	// The segment file lives while any record does, and dies with the
	// last one.
	segmentPath(t, dir)
	for _, e := range es {
		s.Delete(e.Key)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), segmentSuffix) {
			t.Fatal("segment file survived the death of its last record")
		}
	}
}

// TestKillBeforeSegmentRenameLeavesNothing simulates the group-commit
// crash points: the segment is staged and (partially) written but the
// rename never happened. Like a single-record Put, recovery must collect
// the temp debris and index nothing from the aborted group, while
// records committed earlier stay intact.
func TestKillBeforeSegmentRenameLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, entry("k", "committed before the crash"))

	es := groupEntries(4)
	var blob []byte
	for _, e := range es {
		blob = append(blob, EncodeEntry(e)...)
	}
	// Crash 1: staged segment torn mid-record.
	if err := os.WriteFile(filepath.Join(dir, "put-crash1"+tempSuffix), blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash 2: staged segment complete, rename missing.
	if err := os.WriteFile(filepath.Join(dir, "put-crash2"+tempSuffix), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 || s2.Quarantined() != 0 {
		t.Fatalf("recovered len=%d quarantined=%d, want 1/0", s2.Len(), s2.Quarantined())
	}
	mustGet(t, s2, "k")
	for _, e := range es {
		mustMiss(t, s2, e.Key)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), tempSuffix) {
			t.Fatalf("temp file %s survived recovery", de.Name())
		}
	}
}

// TestSegmentTornTailQuarantinesOnlyTail truncates a committed segment at
// every byte offset: recovery must index exactly the records wholly
// inside the prefix, quarantine only the torn tail, and keep serving the
// prefix records byte-identically.
func TestSegmentTornTailQuarantinesOnlyTail(t *testing.T) {
	es := groupEntries(4)
	sizes := make([]int, len(es))
	var total int
	for i, e := range es {
		sizes[i] = len(EncodeEntry(e))
		total += sizes[i]
	}
	// wholeRecords(cut) = how many records fit entirely within cut bytes.
	wholeRecords := func(cut int) int {
		n, acc := 0, 0
		for _, sz := range sizes {
			if acc+sz > cut {
				break
			}
			acc += sz
			n++
		}
		return n
	}

	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutGroup(es); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPath(t, dir)
	blob, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != total {
		t.Fatalf("segment is %d bytes, want %d", len(blob), total)
	}

	for cut := 0; cut < len(blob); cut++ {
		dir := t.TempDir()
		name := filepath.Base(segPath)
		if err := os.WriteFile(filepath.Join(dir, name), blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		want := wholeRecords(cut)
		if s.Len() != want {
			t.Fatalf("cut=%d: indexed %d records, want %d", cut, s.Len(), want)
		}
		// Any leftover bytes past the last whole record are a torn tail
		// and cost exactly one quarantine event; so does an empty file,
		// which no commit writes.
		wantQuarantined := uint64(0)
		if cut == 0 || sumPrefix(sizes, want) != cut {
			wantQuarantined = 1
		}
		if got := s.Quarantined(); got != wantQuarantined {
			t.Fatalf("cut=%d: quarantined = %d, want %d", cut, got, wantQuarantined)
		}
		for i, e := range es {
			if i < want {
				got := mustGet(t, s, e.Key)
				if !bytes.Equal(got.Body, e.Body) {
					t.Fatalf("cut=%d: prefix record %d differs", cut, i)
				}
			} else {
				mustMiss(t, s, e.Key)
			}
		}
		// The truncated file reopens cleanly a second time: the tail was
		// cut away, so nothing further is quarantined.
		s2, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("cut=%d: second Open: %v", cut, err)
		}
		if s2.Len() != want || s2.Quarantined() != 0 {
			t.Fatalf("cut=%d: second open len=%d quarantined=%d, want %d/0",
				cut, s2.Len(), s2.Quarantined(), want)
		}
	}
}

func sumPrefix(sizes []int, n int) int {
	total := 0
	for _, sz := range sizes[:n] {
		total += sz
	}
	return total
}

// TestSegmentBitFlipTailOnly flips one bit in each record of a committed
// segment in turn: recovery must keep every record before the flip and
// quarantine from the flipped record on (framing after a corrupt record
// cannot be trusted).
func TestSegmentBitFlipTailOnly(t *testing.T) {
	es := groupEntries(4)
	sizes := make([]int, len(es))
	for i, e := range es {
		sizes[i] = len(EncodeEntry(e))
	}
	for victim := 0; victim < len(es); victim++ {
		dir := t.TempDir()
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutGroup(es); err != nil {
			t.Fatal(err)
		}
		segPath := segmentPath(t, dir)
		blob, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a payload bit in the middle of the victim record.
		off := sumPrefix(sizes, victim) + sizes[victim]/2
		blob[off] ^= 0x04
		if err := os.WriteFile(segPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Len() != victim {
			t.Fatalf("victim=%d: indexed %d records, want %d", victim, s2.Len(), victim)
		}
		if got := s2.Quarantined(); got != 1 {
			t.Fatalf("victim=%d: quarantined = %d, want 1", victim, got)
		}
		for i, e := range es {
			if i < victim {
				mustGet(t, s2, e.Key)
			} else {
				mustMiss(t, s2, e.Key)
			}
		}
	}
}

// TestSegmentReadTimeCorruption damages a segment after it was indexed:
// the next Get of any of its records must quarantine the whole file
// (its framing is no longer trustworthy), serve nothing damaged, and
// leave the store accepting recomputes.
func TestSegmentReadTimeCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	es := groupEntries(3)
	if err := s.PutGroup(es); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPath(t, dir)
	if err := os.Truncate(segPath, 10); err != nil {
		t.Fatal(err)
	}

	_, ok, err := s.Get(es[1].Key)
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on damaged segment: ok=%v err=%v, want corrupt miss", ok, err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("damaged segment still accounted: len=%d bytes=%d", s.Len(), s.Bytes())
	}
	if n := quarantineCount(t, dir); n != 1 {
		t.Fatalf("quarantine holds %d files, want 1", n)
	}
	for _, e := range es {
		mustMiss(t, s, e.Key)
	}
	// The store keeps working after the quarantine.
	mustPut(t, s, entry(es[0].Key, "recomputed"))
	if got := mustGet(t, s, es[0].Key); string(got.Body) != "recomputed" {
		t.Fatalf("re-stored body = %q", got.Body)
	}
}

func TestPutGroupSingleAndEmpty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutGroup(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.PutGroup([]Entry{entry("only", "one record")}); err != nil {
		t.Fatal(err)
	}
	// A group of one is a one-entry segment, the same file a Put writes.
	info, err := os.Stat(recordPath(t, s, "only"))
	if err != nil || !strings.HasSuffix(info.Name(), segmentSuffix) ||
		info.Size() != int64(len(EncodeEntry(entry("only", "one record")))) {
		t.Fatalf("single-entry group did not write a one-record segment: %v", err)
	}
	mustGet(t, s, "only")

	// Duplicate keys inside one group: last wins, like repeated Put.
	if err := s.PutGroup([]Entry{entry("dup", "first"), entry("x", "other"), entry("dup", "second")}); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, s, "dup"); string(got.Body) != "second" {
		t.Fatalf("dup = %q, want the last value", got.Body)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

// TestPutGroupDuplicateKeySurvivesReopen reopens a segment that repeats a
// key. PutGroup's last-wins replace inside one segment is not two files
// claiming one key: recovery must serve the last value, quarantine
// nothing, and leave the segment's live count exact, so the file goes
// once its records do.
func TestPutGroupDuplicateKeySurvivesReopen(t *testing.T) {
	for name, group := range map[string][]Entry{
		"alone":      {entry("k", "first"), entry("k", "second")},
		"with other": {entry("k", "first"), entry("x", "other"), entry("k", "second")},
	} {
		dir := t.TempDir()
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutGroup(group); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Len() != s.Len() || s2.Bytes() != s.Bytes() || s2.Quarantined() != 0 {
			t.Fatalf("%s: reopen len=%d bytes=%d quarantined=%d, want %d/%d/0",
				name, s2.Len(), s2.Bytes(), s2.Quarantined(), s.Len(), s.Bytes())
		}
		if n := quarantineCount(t, dir); n != 0 {
			t.Fatalf("%s: quarantine holds %d files, want 0", name, n)
		}
		if got := mustGet(t, s2, "k"); string(got.Body) != "second" {
			t.Fatalf("%s: k = %q after reopen, want the last value", name, got.Body)
		}
		segPath := segmentPath(t, dir)
		for _, e := range group {
			s2.Delete(e.Key)
		}
		if _, err := os.Stat(segPath); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: segment survived the delete of its last record: %v", name, err)
		}
	}
}

// TestPutGroupReplacedMemberSurvivesReopen replaces one member of a
// multi-entry segment. The old slot stays on disk while the segment's other
// record lives, so every reopen finds two files claiming the key. That is
// a replace, not damage: recovery must serve the newer value, count no
// quarantine and move no file, and the segment still goes with its last
// live record. A one-entry segment whose replace was cut short before it
// was deleted is retired the same way, and deleted rather than
// quarantined.
func TestPutGroupReplacedMemberSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutGroup([]Entry{entry("a", "group a"), entry("b", "group b")}); err != nil {
		t.Fatal(err)
	}
	groupPath := recordPath(t, s, "a")
	mustPut(t, s, entry("a", "newer a"))
	// Pin the file ages so recovery's newest-wins order does not depend on
	// the filesystem's timestamp resolution.
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(groupPath, hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}
	for reopen := 1; reopen <= 2; reopen++ {
		s2, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if q, n := s2.Quarantined(), quarantineCount(t, dir); q != 0 || n != 0 {
			t.Fatalf("reopen %d: quarantined=%d, quarantine dir holds %d files, want 0/0", reopen, q, n)
		}
		if s2.Len() != 2 || string(mustGet(t, s2, "a").Body) != "newer a" || string(mustGet(t, s2, "b").Body) != "group b" {
			t.Fatalf("reopen %d: len=%d, want a=newer a and b=group b", reopen, s2.Len())
		}
		s = s2
	}
	s.Delete("b")
	if _, err := os.Stat(groupPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("group segment survived the delete of its last live record: %v", err)
	}

	// A replace cut short: the old one-entry segment is back on disk.
	oldPath := recordPath(t, s, "a")
	oldBytes, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, entry("a", "newest a"))
	if err := os.WriteFile(oldPath, oldBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(oldPath, hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q, n := s3.Quarantined(), quarantineCount(t, dir); q != 0 || n != 0 {
		t.Fatalf("cut-short replace: quarantined=%d, quarantine dir holds %d files, want 0/0", q, n)
	}
	if got := mustGet(t, s3, "a"); string(got.Body) != "newest a" {
		t.Fatalf("a = %q after reopen, want the newest value", got.Body)
	}
	if _, err := os.Stat(oldPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale one-entry segment survived recovery: %v", err)
	}
}
