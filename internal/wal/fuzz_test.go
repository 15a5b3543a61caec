package wal

import (
	"bytes"
	"testing"
)

// FuzzScanRecords hammers the record decoder (and the checkpoint parser)
// with arbitrary bytes. Corrupt input must only ever produce a torn-tail
// verdict or an error — never a panic — and the valid prefix must re-encode
// byte-for-byte to what was consumed.
func FuzzScanRecords(f *testing.F) {
	// Seed corpus: empty, one valid record, several records, a truncated
	// frame, a corrupted checksum, an oversized length, a complete and an
	// unterminated batch, and a checkpoint.
	f.Add([]byte{})
	one := appendFrame(nil, []byte("hello"), false)
	f.Add(one)
	multi := appendFrame(appendFrame(nil, []byte("a"), false), bytes.Repeat([]byte("b"), 300), false)
	f.Add(multi)
	f.Add(one[:len(one)-2])
	crcFlip := append([]byte(nil), one...)
	crcFlip[5] ^= 0xff
	f.Add(crcFlip)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	batch := appendFrame(appendFrame(nil, []byte("first"), true), []byte("last"), false)
	f.Add(batch)
	f.Add(appendFrame(nil, []byte("orphan"), true))
	f.Add([]byte(ckptMagic + "\x05\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\xff\xff\xff\xffxyz"))
	f.Add([]byte(segMagic + "\x01\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, b []byte) {
		var payloads [][]byte
		var flags []bool
		consumed, n, reason, err := scanRecords(b, func(p []byte, more bool) error {
			payloads = append(payloads, append([]byte(nil), p...))
			flags = append(flags, more)
			return nil
		})
		if err != nil {
			t.Fatalf("callback error leaked: %v", err)
		}
		if consumed < 0 || consumed > int64(len(b)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(b))
		}
		if uint64(len(payloads)) != n {
			t.Fatalf("callback count %d != record count %d", len(payloads), n)
		}
		if reason == "" && consumed != int64(len(b)) {
			t.Fatalf("clean parse consumed %d of %d bytes", consumed, len(b))
		}
		// Batches are delivered whole: the consumed prefix always ends on a
		// batch boundary, so the last delivered record closes its batch.
		if len(flags) > 0 && flags[len(flags)-1] {
			t.Fatal("scan delivered an unterminated batch")
		}
		// Round-trip: re-encoding the decoded records with their batch flags
		// must reproduce the consumed prefix exactly.
		var re []byte
		for i, p := range payloads {
			re = appendFrame(re, p, flags[i])
		}
		if !bytes.Equal(re, b[:consumed]) {
			t.Fatal("re-encoded records differ from consumed prefix")
		}

		// The checkpoint parser must be equally panic-free.
		if cover, payload, err := parseCheckpoint(b); err == nil {
			if int64(len(payload)) != int64(len(b))-ckptHeaderSize {
				t.Fatalf("checkpoint payload length %d inconsistent (cover %d)", len(payload), cover)
			}
		}

		// So must the seal marker and segment header parsers.
		parseSeal(b)
		parseSegHeader(b)
	})
}
