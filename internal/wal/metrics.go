package wal

import (
	"time"

	"coalloc/internal/obs"
)

// Metrics is the log's telemetry surface, registered in an obs.Registry
// under the "wal." prefix. All methods are nil-safe so an uninstrumented
// log pays only a nil check.
type Metrics struct {
	appendLatency     *obs.Histogram
	fsyncLatency      *obs.Histogram
	checkpointLatency *obs.Histogram
	appends           *obs.Counter
	appendedBytes     *obs.Counter
	fsyncs            *obs.Counter
	checkpoints       *obs.Counter
	readBytes         *obs.Counter
	segments          *obs.Gauge
}

// NewMetrics registers the wal.* series (with help strings) in reg and
// returns the handle a Log consumes via Options.Metrics. reg may be nil, in
// which case nil is returned.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		appendLatency:     reg.Histogram("wal.append.latency"),
		fsyncLatency:      reg.Histogram("wal.fsync.latency"),
		checkpointLatency: reg.Histogram("wal.checkpoint.latency"),
		appends:           reg.Counter("wal.appends"),
		appendedBytes:     reg.Counter("wal.appended_bytes"),
		fsyncs:            reg.Counter("wal.fsyncs"),
		checkpoints:       reg.Counter("wal.checkpoints"),
		readBytes:         reg.Counter("wal.read_bytes"),
		segments:          reg.Gauge("wal.segments"),
	}
	reg.Help("wal.append.latency", "write-ahead log record append wall time")
	reg.Help("wal.fsync.latency", "write-ahead log fsync wall time")
	reg.Help("wal.checkpoint.latency", "checkpoint write + segment truncation wall time")
	reg.Help("wal.appends", "records appended to the write-ahead log")
	reg.Help("wal.appended_bytes", "bytes appended to the write-ahead log, framing included")
	reg.Help("wal.fsyncs", "fsync calls issued by the write-ahead log")
	reg.Help("wal.checkpoints", "checkpoints written")
	reg.Help("wal.read_bytes", "segment bytes read back by ReadRecords (replication tailing)")
	reg.Help("wal.segments", "live write-ahead log segment files")
	return m
}

// observeAppend accounts one write of records framed records.
func (m *Metrics) observeAppend(t0 time.Time, records int, frameBytes int64) {
	if m == nil {
		return
	}
	m.appendLatency.Since(t0)
	m.appends.Add(uint64(records))
	m.appendedBytes.Add(uint64(frameBytes))
}

func (m *Metrics) observeRead(n int) {
	if m == nil {
		return
	}
	m.readBytes.Add(uint64(n))
}

func (m *Metrics) observeFsync(t0 time.Time) {
	if m == nil {
		return
	}
	m.fsyncLatency.Since(t0)
	m.fsyncs.Inc()
}

func (m *Metrics) observeCheckpoint(t0 time.Time) {
	if m == nil {
		return
	}
	m.checkpointLatency.Since(t0)
	m.checkpoints.Inc()
}

func (m *Metrics) setSegments(n int) {
	if m == nil {
		return
	}
	m.segments.Set(int64(n))
}
