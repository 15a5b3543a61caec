package grid

import (
	"encoding/binary"
	"errors"
	"fmt"

	"coalloc/internal/core"
	"coalloc/internal/job"
	"coalloc/internal/period"
)

// Journal record layout. A record is one Op in a fixed field order, no field
// names or type descriptions on disk:
//
//	byte    opCodecVersion
//	byte    Kind
//	varint  Now
//	string  HoldID            (uvarint length, then the bytes)
//	varint  Expires
//	        Alloc.Job:        varint ID, User, Submit, Start, Duration,
//	                          Servers, Deadline, RunTime, DeltaT, MaxAttempts
//	        Alloc.Servers:    uvarint count, then one varint per server
//	varint  Alloc.Start, Alloc.End, Alloc.Attempts, Alloc.Wait
//	        SchedStats:       varint Submitted, Accepted, Rejected;
//	                          uvarint TotalAttempts, RangeSearches, Releases
//	uvarint SchedOps
//
// Every field of Op, job.Allocation, job.Request and core.Stats is written,
// in every record: a commit costs a few zero bytes for the allocation it does
// not carry, and the decoder has one shape to check. A struct that grows a
// field must grow the layout and bump the version; TestOpCodecCoversEveryField
// fails until it does. There is one version and no fallback: a record that
// starts with any other byte is reported, not guessed at.
const opCodecVersion = 1

// EncodeOp serializes an op for the journal.
func EncodeOp(op Op) []byte {
	// Sized for a prepare granting a few servers; append grows it otherwise.
	b := make([]byte, 0, 128)
	b = append(b, opCodecVersion, byte(op.Kind))
	b = binary.AppendVarint(b, int64(op.Now))
	b = binary.AppendUvarint(b, uint64(len(op.HoldID)))
	b = append(b, op.HoldID...)
	b = binary.AppendVarint(b, int64(op.Expires))

	j := &op.Alloc.Job
	for _, v := range [...]int64{
		j.ID, int64(j.User), int64(j.Submit), int64(j.Start), int64(j.Duration),
		int64(j.Servers), int64(j.Deadline), int64(j.RunTime), int64(j.DeltaT), int64(j.MaxAttempts),
	} {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(op.Alloc.Servers)))
	for _, srv := range op.Alloc.Servers {
		b = binary.AppendVarint(b, int64(srv))
	}
	for _, v := range [...]int64{
		int64(op.Alloc.Start), int64(op.Alloc.End), int64(op.Alloc.Attempts), int64(op.Alloc.Wait),
		int64(op.SchedStats.Submitted), int64(op.SchedStats.Accepted), int64(op.SchedStats.Rejected),
	} {
		b = binary.AppendVarint(b, v)
	}
	for _, v := range [...]uint64{
		op.SchedStats.TotalAttempts, op.SchedStats.RangeSearches, op.SchedStats.Releases, op.SchedOps,
	} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// errOpTruncated is every way a record can end early or overflow a varint.
var errOpTruncated = errors.New("truncated or malformed field")

// opReader consumes a record front to back; the first malformed field sticks
// in err and every later read returns zero, so DecodeOp checks once.
type opReader struct {
	b   []byte
	err error
}

func (r *opReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err, r.b = errOpTruncated, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *opReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err, r.b = errOpTruncated, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a length prefix for elements of at least one byte each, so a
// corrupt length can never ask for more than the record holds.
func (r *opReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.err, r.b = errOpTruncated, nil
		return 0
	}
	return int(n)
}

// DecodeOp deserializes a journal record. Corrupt input yields an error,
// never a panic (framing corruption is already caught by the WAL's
// checksums; this guards the payload layer).
func DecodeOp(b []byte) (Op, error) {
	if len(b) < 2 {
		return Op{}, fmt.Errorf("grid: decode op: record of %d bytes", len(b))
	}
	if b[0] != opCodecVersion {
		return Op{}, fmt.Errorf("grid: decode op: record version %d, this build reads version %d", b[0], opCodecVersion)
	}
	r := opReader{b: b[2:]}
	op := Op{Kind: OpKind(b[1])}
	op.Now = period.Time(r.varint())
	n := r.count()
	op.HoldID = string(r.b[:n])
	r.b = r.b[n:]
	op.Expires = period.Time(r.varint())

	op.Alloc.Job = job.Request{
		ID:          r.varint(),
		User:        int(r.varint()),
		Submit:      period.Time(r.varint()),
		Start:       period.Time(r.varint()),
		Duration:    period.Duration(r.varint()),
		Servers:     int(r.varint()),
		Deadline:    period.Time(r.varint()),
		RunTime:     period.Duration(r.varint()),
		DeltaT:      period.Duration(r.varint()),
		MaxAttempts: int(r.varint()),
	}
	if n := r.count(); n > 0 {
		op.Alloc.Servers = make([]int, n)
		for i := range op.Alloc.Servers {
			op.Alloc.Servers[i] = int(r.varint())
		}
	}
	op.Alloc.Start = period.Time(r.varint())
	op.Alloc.End = period.Time(r.varint())
	op.Alloc.Attempts = int(r.varint())
	op.Alloc.Wait = period.Duration(r.varint())
	op.SchedStats = core.Stats{
		Submitted:     int(r.varint()),
		Accepted:      int(r.varint()),
		Rejected:      int(r.varint()),
		TotalAttempts: r.uvarint(),
		RangeSearches: r.uvarint(),
		Releases:      r.uvarint(),
	}
	op.SchedOps = r.uvarint()
	if r.err != nil {
		return Op{}, fmt.Errorf("grid: decode op: %w", r.err)
	}
	if len(r.b) != 0 {
		return Op{}, fmt.Errorf("grid: decode op: %d bytes after the last field", len(r.b))
	}
	return op, nil
}
