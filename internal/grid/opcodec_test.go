package grid

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/job"
	"coalloc/internal/period"
)

// randomOp draws an op with every field populated from the full range of its
// type, including the negative and 64-bit-wide values a varint must carry.
func randomOp(rng *rand.Rand) Op {
	wide := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Int63n(100)
		case 1:
			return -rng.Int63n(100000)
		default:
			return int64(rng.Uint64())
		}
	}
	id := make([]byte, rng.Intn(40))
	rng.Read(id)
	op := Op{
		Kind:    OpKind(rng.Intn(256)),
		Now:     period.Time(wide()),
		HoldID:  string(id),
		Expires: period.Time(wide()),
		Alloc: job.Allocation{
			Job: job.Request{
				ID: wide(), User: int(wide()), Submit: period.Time(wide()), Start: period.Time(wide()),
				Duration: period.Duration(wide()), Servers: int(wide()), Deadline: period.Time(wide()),
				RunTime: period.Duration(wide()), DeltaT: period.Duration(wide()), MaxAttempts: int(wide()),
			},
			Start: period.Time(wide()), End: period.Time(wide()), Attempts: int(wide()), Wait: period.Duration(wide()),
		},
		SchedStats: core.Stats{
			Submitted: int(wide()), Accepted: int(wide()), Rejected: int(wide()),
			TotalAttempts: rng.Uint64(), RangeSearches: rng.Uint64(), Releases: rng.Uint64(),
		},
		SchedOps: rng.Uint64(),
	}
	if n := rng.Intn(6); n > 0 {
		op.Alloc.Servers = make([]int, n)
		for i := range op.Alloc.Servers {
			op.Alloc.Servers[i] = int(wide())
		}
	}
	return op
}

func TestOpCodecRoundTripsRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		in := randomOp(rng)
		out, err := DecodeOp(EncodeOp(in))
		if err != nil {
			t.Fatalf("op %d: %v\n%+v", i, err, in)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("op %d round trip:\n in  %+v\n out %+v", i, in, out)
		}
	}
}

// setDistinct gives every leaf of v a non-zero value, so a field the codec
// skips comes back zero and shows.
func setDistinct(t *testing.T, v reflect.Value, path string, next *int64) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setDistinct(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(*next)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.String:
		v.SetString(path)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			setDistinct(t, v.Index(i), path, next)
		}
	default:
		t.Fatalf("%s is a %s: teach the journal codec (opcodec.go) and this test about it", path, v.Kind())
	}
}

// TestOpCodecCoversEveryField fails when Op, job.Allocation, job.Request or
// core.Stats grows a field the fixed layout does not write: the new field is
// set here by reflection and does not survive the round trip.
func TestOpCodecCoversEveryField(t *testing.T) {
	var in Op
	var next int64
	setDistinct(t, reflect.ValueOf(&in).Elem(), "Op", &next)
	out, err := DecodeOp(EncodeOp(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("a field does not survive the journal codec — extend the layout in opcodec.go and bump opCodecVersion:\n in  %+v\n out %+v", in, out)
	}
}

func TestDecodeOpRejectsWhatItCannotRead(t *testing.T) {
	good := EncodeOp(Op{Kind: OpPrepare, HoldID: "h1", Alloc: job.Allocation{Servers: []int{2, 5}}})
	for name, b := range map[string][]byte{
		"empty":         nil,
		"version only":  {opCodecVersion},
		"garbage":       []byte("garbage"),
		"truncated":     good[:len(good)-1],
		"trailing byte": append(append([]byte(nil), good...), 0),
		"huge count":    {opCodecVersion, byte(OpPrepare), 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
	} {
		if _, err := DecodeOp(b); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	other := append([]byte(nil), good...)
	other[0] = opCodecVersion + 1
	if _, err := DecodeOp(other); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("record of another version = %v, want an error that names the version", err)
	}
}

// FuzzDecodeOp: whatever the bytes, DecodeOp returns an error or an op that
// re-encodes to an equivalent record — it never panics and never allocates
// beyond the record's size.
func FuzzDecodeOp(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add([]byte{})
	f.Add([]byte{opCodecVersion})
	f.Add([]byte("garbage"))
	for i := 0; i < 8; i++ {
		b := EncodeOp(randomOp(rng))
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		op, err := DecodeOp(b)
		if err != nil {
			return
		}
		again, err := DecodeOp(EncodeOp(op))
		if err != nil {
			t.Fatalf("re-encoded op does not decode: %v", err)
		}
		if !reflect.DeepEqual(op, again) {
			t.Fatalf("decode is not stable:\n first  %+v\n second %+v", op, again)
		}
	})
}

func BenchmarkOpCodec(b *testing.B) {
	op := Op{Kind: OpPrepare, Now: 86400, HoldID: "bench-0000012345", Expires: 172800, SchedOps: 123456,
		Alloc:      job.Allocation{Job: job.Request{ID: 1 << 60, Submit: 86400, Start: 90000, Duration: 3600, Servers: 3, Deadline: 93600}, Servers: []int{4, 17, 31}, Start: 90000, End: 93600, Attempts: 1},
		SchedStats: core.Stats{Submitted: 5000, Accepted: 4800, Rejected: 200, TotalAttempts: 5100, Releases: 2000}}
	rec := EncodeOp(op)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(rec)), "bytes/record")
		for i := 0; i < b.N; i++ {
			rec = EncodeOp(op)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeOp(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
