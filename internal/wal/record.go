package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Record framing. Every record is stored as
//
//	[4 bytes] payload length, little endian; bit 31 is the batch bit
//	[4 bytes] CRC32-C (Castagnoli) of the payload, little endian
//	[n bytes] payload
//
// The frame carries no sequence number: a record's LSN is implicit in its
// position (the segment header names the LSN of the segment's first record).
// A record is valid only if its full frame is present and the checksum
// matches; anything else is a torn tail — the truncated remains of an append
// that a crash interrupted — and recovery discards it and everything after.
//
// The batch bit marks a record whose group-commit batch continues with the
// next record; the final record of a batch (and every single-record append)
// has it clear. Recovery treats a batch as atomic: a crash that lands inside
// a batch drops the whole batch, never a prefix of it, because AppendBatch
// acknowledges nothing until the final record is durable. MaxRecord keeps
// lengths well below 2^31, so the bit is unambiguous; logs written before the
// bit existed parse unchanged (no record carries it).

// frameHeaderSize is the fixed per-record overhead.
const frameHeaderSize = 8

// batchBit marks a record whose batch continues with the next record.
const batchBit = uint32(1) << 31

// MaxRecord bounds a single record's payload, protecting recovery from
// allocating huge buffers when a corrupt length prefix is read.
const MaxRecord = 16 << 20

// castagnoli is the CRC32-C table used for every checksum in the log.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed record for payload to buf and returns the
// extended slice. more sets the batch bit: the record's group-commit batch
// continues with the next record.
func appendFrame(buf, payload []byte, more bool) []byte {
	n := uint32(len(payload))
	if more {
		n |= batchBit
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], n)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// frameSize returns the on-disk size of a record with the given payload
// length.
func frameSize(payloadLen int) int64 { return int64(frameHeaderSize + payloadLen) }

// parseFrame parses the record frame at the head of b. On success it returns
// the payload (aliasing b), the frame's batch bit and an empty reason; the
// frame occupies frameSize(len(payload)) bytes. Otherwise reason names why
// the bytes at the head of b are not a whole, intact frame.
func parseFrame(b []byte) (payload []byte, more bool, reason string) {
	if len(b) < frameHeaderSize {
		return nil, false, "short frame header"
	}
	raw := binary.LittleEndian.Uint32(b[0:4])
	n := raw &^ batchBit
	if n > MaxRecord {
		return nil, false, "oversized record length"
	}
	if uint32(len(b)-frameHeaderSize) < n {
		return nil, false, "short payload"
	}
	payload = b[frameHeaderSize : frameHeaderSize+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, false, "checksum mismatch"
	}
	return payload, raw&batchBit != 0, ""
}

// scanRecords walks the framed records in b, invoking fn with each valid
// payload in order; more is the record's batch bit (its batch continues with
// the next record). Records are delivered a whole batch at a time: a batch
// whose final record is missing or damaged is dropped entirely. The returned
// consumed count is the byte length of the valid prefix — the end of the last
// complete batch; reason is empty when the whole buffer parsed cleanly and
// otherwise names why the tail starting at consumed is invalid. The payload
// passed to fn aliases b; callers that retain it must copy. If fn returns an
// error the scan stops and that error is returned.
func scanRecords(b []byte, fn func(payload []byte, more bool) error) (consumed int64, records uint64, reason string, err error) {
	off := 0
	committed := 0 // end offset of the last complete batch
	var pending [][]byte
	for off < len(b) {
		payload, more, why := parseFrame(b[off:])
		if why != "" {
			return int64(committed), records, why, nil
		}
		off += frameHeaderSize + len(payload)
		if more {
			pending = append(pending, payload)
			continue
		}
		if fn != nil {
			for _, p := range pending {
				if err := fn(p, true); err != nil {
					return int64(committed), records, "", err
				}
				records++
			}
			if err := fn(payload, false); err != nil {
				return int64(committed), records, "", err
			}
		} else {
			records += uint64(len(pending))
		}
		records++
		pending = pending[:0]
		committed = off
	}
	if len(pending) > 0 {
		return int64(committed), records, "unterminated batch", nil
	}
	return int64(committed), records, "", nil
}
