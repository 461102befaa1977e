// Package store is a disk-backed, content-addressed result store: the
// persistent tier behind the in-memory LRU of internal/service. Entries
// are keyed by the service's canonical request hash and hold a finished,
// serialized response body. Because every simulation is a deterministic
// function of its canonical request (the golden test pins this
// bit-exactly), a disk hit is byte-identical to a recompute — the store
// never needs invalidation, only integrity checking and capacity
// eviction.
//
// On-disk format (DESIGN.md §10): segment files, each holding one or
// more records back to back, written with an atomic
// temp-file-and-rename protocol. A record is a fixed header (magic,
// payload length, CRC32C of the payload) followed by the length-prefixed
// payload fields. Any record that does not decode exactly — truncated,
// bad magic, length or CRC mismatch — is quarantined, never served.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt tags every decode failure: truncation, bad magic, length or
// checksum mismatch, or trailing garbage. Callers treat it as "this
// record does not exist" after quarantining the file.
var ErrCorrupt = errors.New("store: corrupt record")

// Record framing. All integers are little-endian.
const (
	entryMagic = "HXR1" // records holding an Entry
	headerSize = 4 + 4 + 4
)

// castagnoli is the CRC32C polynomial table; CRC32C detects all
// single-bit and all 2-bit errors over these record sizes.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32Checksum is the record checksum: CRC32C over the payload.
func crc32Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Entry is one stored result: the serialized response body for a
// canonical request key, plus the metadata the service replays with it.
type Entry struct {
	// Key is the canonical request hash (e.g. "spec:ab12…") the entry is
	// addressed by. It is embedded in the record so a scan can rebuild
	// the index from file contents alone, and so a swapped or misnamed
	// file is detected at read time.
	Key string
	// ContentType is the HTTP content type of Body.
	ContentType string
	// Events is the simulation event count behind the body, replayed
	// into the X-Hexd-Events header.
	Events uint64
	// Body is the exact response body. Disk hits replay it verbatim;
	// determinism makes that byte-identical to a recompute.
	Body []byte
}

// EncodeEntry serializes e into a framed record. The encoding is
// canonical: equal entries encode to equal bytes, and DecodeEntry is its
// exact inverse (the fuzz harness asserts the bijection).
func EncodeEntry(e Entry) []byte {
	n := headerSize + 4 + len(e.Key) + 4 + len(e.ContentType) + 8 + 4 + len(e.Body)
	buf := make([]byte, 0, n)
	buf = append(buf, entryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n-headerSize))
	buf = buf[:headerSize] // CRC filled in below, after the payload exists
	buf = appendBytes(buf, []byte(e.Key))
	buf = appendBytes(buf, []byte(e.ContentType))
	buf = binary.LittleEndian.AppendUint64(buf, e.Events)
	buf = appendBytes(buf, e.Body)
	binary.LittleEndian.PutUint32(buf[8:12], crc32Checksum(buf[headerSize:]))
	return buf
}

// DecodeEntry parses a framed record. Every failure wraps ErrCorrupt and
// names the reason; a nil error guarantees the whole input was consumed
// and the checksum matched.
func DecodeEntry(data []byte) (Entry, error) {
	payload, err := checkFrame(data, entryMagic)
	if err != nil {
		return Entry{}, err
	}
	r := reader{buf: payload}
	key := r.bytes()
	ct := r.bytes()
	events := r.uint64()
	body := r.bytes()
	if r.err != nil {
		return Entry{}, r.err
	}
	if len(r.buf) != 0 {
		return Entry{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.buf))
	}
	return Entry{Key: string(key), ContentType: string(ct), Events: events, Body: body}, nil
}

// checkFrame validates the header of a record and returns its payload.
func checkFrame(data []byte, magic string) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	payload := data[headerSize:]
	if n := binary.LittleEndian.Uint32(data[4:8]); int(n) != len(payload) {
		return nil, fmt.Errorf("%w: header says %d payload bytes, file has %d", ErrCorrupt, n, len(payload))
	}
	want := binary.LittleEndian.Uint32(data[8:12])
	if got := crc32Checksum(payload); got != want {
		return nil, fmt.Errorf("%w: CRC32C mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return payload, nil
}

// appendBytes writes a u32 length prefix followed by the bytes.
func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// reader consumes a payload left to right, latching the first error so
// callers can chain reads and check once. Length prefixes are validated
// against the remaining input before any slice is taken, so a corrupt
// length can never over-read or over-allocate.
type reader struct {
	buf []byte
	err error
}

func (r *reader) uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 4 {
		r.err = fmt.Errorf("%w: truncated u32", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("%w: truncated u64", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) bytes() []byte {
	n := r.uint32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(r.buf)) {
		r.err = fmt.Errorf("%w: length prefix %d exceeds %d remaining bytes", ErrCorrupt, n, len(r.buf))
		return nil
	}
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[:n])
	r.buf = r.buf[n:]
	return b
}
