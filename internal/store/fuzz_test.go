package store

import (
	"bytes"
	"testing"
)

// FuzzStoreCodec throws arbitrary bytes at the record decoders: the
// HXR1 entry frame every segment file is built from, and the HXA1
// aggregate frame campaign bodies carry. The invariants, for any input
// whatsoever:
//
//  1. Decoding never panics and never over-allocates past the input size
//     (lying length prefixes are bounds-checked before allocation).
//  2. Anything that decodes cleanly re-encodes to the identical bytes —
//     the codecs are bijections between valid records and values, so a
//     decoded record carries exactly the information of its file.
//
// The seed corpus holds real frames — a spec body from the golden
// configuration (50×20, scenario (iii), seed 424242), a sweep job's spec
// record, binary keys and bodies, aggregates — and a two-record segment,
// which no single-frame decoder may accept, so the fuzzer starts from the
// deep end of the format rather than from zero.
func FuzzStoreCodec(f *testing.F) {
	golden := EncodeEntry(Entry{
		Key:         "spec:golden",
		ContentType: "application/json",
		Events:      1404900,
		Body:        []byte(`{"intra_skew_ns":{"avg":0.5029840000000003,"n":1000}}` + "\n"),
	})
	f.Add([]byte{})
	f.Add([]byte(entryMagic))
	f.Add([]byte(aggregateMagic))
	f.Add(golden)
	f.Add(EncodeEntry(Entry{}))
	f.Add(EncodeEntry(Entry{
		Key:         "job:3f9a",
		ContentType: "application/json",
		Body:        []byte(`{"tenant":"t","l":20,"w":12,"scenarios":["iii"],"runs":16,"batch":4}`),
	}))
	f.Add(EncodeEntry(Entry{Key: "k\x00\xff", Events: 1<<63 + 7, Body: []byte{0, 255, 1, 0}}))
	f.Add(append(append([]byte(nil), golden...), golden...))
	f.Add(EncodeAggregate(&Aggregate{}))
	f.Add(EncodeAggregate(sampleAggregate()))

	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := DecodeEntry(data); err == nil {
			again := EncodeEntry(e)
			if !bytes.Equal(again, data) {
				t.Fatalf("entry codec not bijective: %d-byte input re-encoded to %d bytes", len(data), len(again))
			}
			e2, err := DecodeEntry(again)
			if err != nil {
				t.Fatalf("re-decode of re-encoded entry failed: %v", err)
			}
			if e2.Key != e.Key || e2.ContentType != e.ContentType || e2.Events != e.Events ||
				!bytes.Equal(e2.Body, e.Body) {
				t.Fatal("entry round trip lost information")
			}
		}
		if a, err := DecodeAggregate(data); err == nil {
			again := EncodeAggregate(a)
			if !bytes.Equal(again, data) {
				t.Fatalf("aggregate codec not bijective: %d-byte input re-encoded to %d bytes", len(data), len(again))
			}
			if _, err := DecodeAggregate(again); err != nil {
				t.Fatalf("re-decode of re-encoded aggregate failed: %v", err)
			}
		}
	})
}
