package store

import (
	"bytes"
	"errors"
	"testing"
)

func TestEncodeDecodeEntryCanonical(t *testing.T) {
	cases := []Entry{
		{},
		{Key: "run:00", ContentType: "application/json", Events: 0, Body: nil},
		{Key: "spec:ff", ContentType: "image/svg+xml", Events: 1<<63 + 7, Body: []byte("<svg/>")},
		{Key: "k\x00with\nweird|bytes", ContentType: "", Events: 42, Body: bytes.Repeat([]byte{0, 255, 1}, 100)},
	}
	for i, want := range cases {
		data := EncodeEntry(want)
		got, err := DecodeEntry(data)
		if err != nil {
			t.Fatalf("case %d: DecodeEntry: %v", i, err)
		}
		if got.Key != want.Key || got.ContentType != want.ContentType || got.Events != want.Events ||
			!bytes.Equal(got.Body, want.Body) {
			t.Fatalf("case %d: round trip mismatch: %+v vs %+v", i, got, want)
		}
		// Canonical: re-encoding the decoded entry reproduces the bytes.
		if again := EncodeEntry(got); !bytes.Equal(again, data) {
			t.Fatalf("case %d: re-encode differs from original encoding", i)
		}
	}
}

func TestDecodeEntryRejectsMalformedFrames(t *testing.T) {
	valid := EncodeEntry(Entry{Key: "k", ContentType: "t", Events: 1, Body: []byte("b")})
	mangle := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := map[string][]byte{
		"empty":           {},
		"short header":    valid[:headerSize-1],
		"bad magic":       mangle(func(b []byte) []byte { b[0] = 'Z'; return b }),
		"aggregate magic": mangle(func(b []byte) []byte { copy(b, aggregateMagic); return b }),
		"trailing bytes":  append(append([]byte(nil), valid...), 0xAA),
		"truncated body":  valid[:len(valid)-1],
		"zeroed crc":      mangle(func(b []byte) []byte { b[8], b[9], b[10], b[11] = 0, 0, 0, 0; return b }),
		"length inflated": mangle(func(b []byte) []byte { b[4]++; return b }),
	}
	for name, data := range cases {
		if _, err := DecodeEntry(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// An inner length prefix that overruns the payload must be caught by
	// the bounds check, not by an allocation or slice panic. Rebuild the
	// CRC so the frame itself is valid and only the field is lying.
	lying := append([]byte(nil), valid...)
	lying[headerSize] = 0xFF // key length low byte → absurdly long
	rebuildCRC(lying)
	if _, err := DecodeEntry(lying); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying length prefix: err = %v, want ErrCorrupt", err)
	}
}

// rebuildCRC recomputes a record's checksum after a deliberate payload
// edit, so tests can isolate payload-structure checks from the CRC.
func rebuildCRC(record []byte) {
	record[8] = 0
	record[9] = 0
	record[10] = 0
	record[11] = 0
	c := crc32Checksum(record[headerSize:])
	record[8] = byte(c)
	record[9] = byte(c >> 8)
	record[10] = byte(c >> 16)
	record[11] = byte(c >> 24)
}
