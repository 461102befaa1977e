package store

import (
	"errors"
	"os"
	"syscall"
	"testing"
)

// TestSegmentOpenFailureKeepsRecord runs the process out of file
// descriptors, so opening a healthy segment fails with EMFILE. Get must
// report that as a miss without quarantining anything, and serve the
// committed value again once descriptors are free.
func TestSegmentOpenFailureKeepsRecord(t *testing.T) {
	s := openTest(t, 0)
	want := entry("k", "a healthy committed body")
	mustPut(t, s, want)

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	low := lim
	low.Cur = 64
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Fatal(err)
	}
	var held []*os.File
	release := func() {
		for _, f := range held {
			f.Close()
		}
		held = nil
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Errorf("restoring RLIMIT_NOFILE: %v", err)
		}
	}
	defer release()
	for {
		f, err := os.Open(os.DevNull)
		if err != nil {
			if !errors.Is(err, syscall.EMFILE) {
				t.Fatalf("opening %s: %v, want EMFILE", os.DevNull, err)
			}
			break
		}
		held = append(held, f)
	}

	_, ok, err := s.Get(want.Key)
	if ok || !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("Get with no descriptors left = ok=%v err=%v, want a miss with EMFILE", ok, err)
	}
	if q, n := s.Quarantined(), s.Len(); q != 0 || n != 1 {
		t.Fatalf("after a failed open: quarantined %d, len %d, want 0 and 1", q, n)
	}

	release()
	if got := mustGet(t, s, want.Key); string(got.Body) != string(want.Body) {
		t.Fatalf("body %q after the descriptors came back, want %q", got.Body, want.Body)
	}
	if q := quarantineCount(t, s.Dir()); q != 0 {
		t.Fatalf("%d files under quarantine, want none", q)
	}
}
