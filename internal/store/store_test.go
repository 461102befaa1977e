package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// openTest opens a store rooted in a fresh temp dir.
func openTest(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entry builds a distinguishable test entry.
func entry(key, body string) Entry {
	return Entry{Key: key, ContentType: "application/json", Events: uint64(len(body)), Body: []byte(body)}
}

// mustPut stores e or fails the test.
func mustPut(t *testing.T, s *Store, e Entry) {
	t.Helper()
	if err := s.Put(e); err != nil {
		t.Fatalf("Put(%q): %v", e.Key, err)
	}
}

// mustGet fetches key and requires a clean hit.
func mustGet(t *testing.T, s *Store, key string) Entry {
	t.Helper()
	e, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get(%q) = ok=%v err=%v, want clean hit", key, ok, err)
	}
	return e
}

// mustMiss requires key to be absent without error.
func mustMiss(t *testing.T, s *Store, key string) {
	t.Helper()
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("Get(%q) = ok=%v err=%v, want clean miss", key, ok, err)
	}
}

// recordPath returns the path of the segment file that holds key's
// record, found through the index.
func recordPath(t *testing.T, s *Store, key string) string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		t.Fatalf("key %q is not indexed", key)
	}
	return filepath.Join(s.Dir(), el.Value.(*record).seg.name)
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, 0)
	want := Entry{Key: "run:abc", ContentType: "text/csv; charset=utf-8", Events: 12345, Body: []byte("layer,node\n0,1\n")}
	mustPut(t, s, want)
	got := mustGet(t, s, "run:abc")
	if got.Key != want.Key || got.ContentType != want.ContentType ||
		got.Events != want.Events || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	mustMiss(t, s, "run:other")
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if s.Bytes() != int64(len(EncodeEntry(want))) {
		t.Fatalf("Bytes = %d, want encoded size %d", s.Bytes(), len(EncodeEntry(want)))
	}
}

func TestReopenRecoversEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustPut(t, s, entry(fmt.Sprintf("spec:%d", i), strings.Repeat("x", i+1)))
	}

	// A second Open over the same directory must rebuild the index purely
	// from the files.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("recovered %d entries, want 5", s2.Len())
	}
	if s2.Bytes() != s.Bytes() {
		t.Fatalf("recovered %d bytes, want %d", s2.Bytes(), s.Bytes())
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("spec:%d", i)
		if got := mustGet(t, s2, key); !bytes.Equal(got.Body, []byte(strings.Repeat("x", i+1))) {
			t.Fatalf("recovered body for %q = %q", key, got.Body)
		}
	}
}

func TestOverwriteReplacesRecord(t *testing.T) {
	s := openTest(t, 0)
	mustPut(t, s, entry("k", "old body"))
	mustPut(t, s, entry("k", "new and longer body"))
	if got := mustGet(t, s, "k"); string(got.Body) != "new and longer body" {
		t.Fatalf("body after overwrite = %q", got.Body)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after overwrite = %d, want 1", s.Len())
	}
	if want := int64(len(EncodeEntry(entry("k", "new and longer body")))); s.Bytes() != want {
		t.Fatalf("Bytes after overwrite = %d, want %d", s.Bytes(), want)
	}
}

func TestEvictionIsLRUByBytes(t *testing.T) {
	recSize := int64(len(EncodeEntry(entry("k0", strings.Repeat("b", 64)))))
	s := openTest(t, 3*recSize)
	for i := 0; i < 3; i++ {
		mustPut(t, s, entry(fmt.Sprintf("k%d", i), strings.Repeat("b", 64)))
	}
	// Touch k0 so k1 becomes least recently used, then overflow.
	mustGet(t, s, "k0")
	k1Path := recordPath(t, s, "k1")
	mustPut(t, s, entry("k3", strings.Repeat("b", 64)))

	mustMiss(t, s, "k1")
	for _, key := range []string{"k0", "k2", "k3"} {
		mustGet(t, s, key)
	}
	if s.Bytes() > 3*recSize {
		t.Fatalf("Bytes = %d exceeds budget %d", s.Bytes(), 3*recSize)
	}
	// The evicted record must be gone from disk too, not just the index.
	if _, err := os.Stat(k1Path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("evicted record still on disk: %v", err)
	}
}

func TestPutRejectsRecordOverBudget(t *testing.T) {
	s := openTest(t, 64)
	err := s.Put(entry("big", strings.Repeat("z", 1000)))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put over-budget err = %v, want ErrTooLarge", err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("rejected record was stored: len=%d bytes=%d", s.Len(), s.Bytes())
	}
}

// TestSwappedFilesDetectedByEmbeddedKey swaps two segment files on disk
// behind the store's back; the embedded key must catch the mismatch so
// the wrong body is never served under either key.
func TestSwappedFilesDetectedByEmbeddedKey(t *testing.T) {
	s := openTest(t, 0)
	mustPut(t, s, entry("a", "body of a"))
	mustPut(t, s, entry("b", "body of b"))

	pa, pb := recordPath(t, s, "a"), recordPath(t, s, "b")
	tmp := pa + ".swap"
	for _, step := range [][2]string{{pa, tmp}, {pb, pa}, {tmp, pb}} {
		if err := os.Rename(step[0], step[1]); err != nil {
			t.Fatal(err)
		}
	}

	_, ok, err := s.Get("a")
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on swapped file: ok=%v err=%v, want corrupt miss", ok, err)
	}
	if s.Quarantined() == 0 {
		t.Fatal("swapped record was not quarantined")
	}
}

// TestEvictionUnderChurn hammers a tiny store from many goroutines and
// asserts the byte budget is never observed exceeded, not even
// transiently, while entries churn through eviction.
func TestEvictionUnderChurn(t *testing.T) {
	const budget = 4096
	s := openTest(t, budget)

	var stop atomic.Bool
	violated := make(chan int64, 1)
	var probe sync.WaitGroup
	probe.Add(1)
	go func() {
		defer probe.Done()
		for !stop.Load() {
			if b := s.Bytes(); b > budget {
				select {
				case violated <- b:
				default:
				}
				return
			}
		}
	}()

	const writers, puts = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				key := fmt.Sprintf("churn:%d:%d", g, i)
				body := strings.Repeat(string(rune('a'+g)), 100+i)
				if err := s.Put(entry(key, body)); err != nil {
					t.Errorf("Put(%q): %v", key, err)
					return
				}
				s.Get(key)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	probe.Wait()
	select {
	case b := <-violated:
		t.Fatalf("byte budget exceeded mid-churn: observed %d > %d", b, budget)
	default:
	}

	if b := s.Bytes(); b > budget {
		t.Fatalf("final Bytes = %d > budget %d", b, budget)
	}
	// The index accounting must agree with what is actually on disk: every
	// Put is a one-entry segment, so each live key's file, found through
	// the index, holds exactly its record, and evicted keys left no file.
	var diskBytes int64
	for _, key := range s.Keys("") {
		info, err := os.Stat(recordPath(t, s, key))
		if err != nil {
			t.Fatal(err)
		}
		diskBytes += info.Size()
	}
	segs, err := filepath.Glob(filepath.Join(s.Dir(), "*"+segmentSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if diskBytes != s.Bytes() || len(segs) != s.Len() {
		t.Fatalf("disk has %d bytes in %d segment files, index says %d bytes in %d records",
			diskBytes, len(segs), s.Bytes(), s.Len())
	}
}
