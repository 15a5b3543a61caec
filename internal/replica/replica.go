// Package replica adds primary/backup high availability to a grid site. A
// primary site streams its write-ahead log — the same CRC-framed records
// internal/wal journals, in the same group-commit batches — to one or more
// standby replicas, which append the records to their own logs and apply
// each batch through grid's ReplayBatch. Because replay is the exact recovery
// path, and the transition function the primary applied them with, a
// standby is at every acknowledged position byte-identical to what the
// primary would recover to after a crash.
//
// The moving parts:
//
//   - Primary wraps the site's log and implements grid.BatchWAL, so the
//     site's group commit drives replication for free: a mutation batch is
//     appended locally, the per-replica senders are woken, and — in
//     semi-sync mode — the batch is not acknowledged to brokers until
//     enough replicas have persisted it.
//   - Standby owns the replica side: it applies stream batches (persist
//     first, replay second, acknowledge third), bootstraps from a primary
//     checkpoint snapshot when it is too far behind, and can be promoted
//     into a primary.
//   - Incarnations fence the dead. Every promotion bumps a durable
//     incarnation number; a standby refuses stream traffic from any older
//     incarnation with a fencing error, and a primary that receives one
//     fences its site (grid.Site.Fence) and seals its log (wal.Log.Seal),
//     so a revived zombie can never acknowledge work the promoted replica
//     does not have.
//
// Ack modes. Async acknowledges as soon as the local append is durable —
// replication trails behind, and a failover can lose the unshipped tail.
// Semi-sync withholds the acknowledgment until AckReplicas standbys have
// persisted the batch; a failover to an acknowledged position then loses
// nothing. Semi-sync degrades to async when no replica answers within
// AckTimeout (availability over consistency, recorded in the degraded
// counter); a negative AckTimeout never degrades.
package replica

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// AckMode selects when a primary acknowledges a journaled mutation batch.
type AckMode int

const (
	// Async acknowledges after the local append; replication is best-effort.
	Async AckMode = iota
	// SemiSync acknowledges only after AckReplicas standbys persisted the
	// batch (or AckTimeout elapsed; see the package comment).
	SemiSync
)

// String names the mode for status output and flags.
func (m AckMode) String() string {
	if m == SemiSync {
		return "semi-sync"
	}
	return "async"
}

// ParseAckMode parses the -ack-mode flag values.
func ParseAckMode(s string) (AckMode, error) {
	switch strings.ToLower(s) {
	case "async", "":
		return Async, nil
	case "semisync", "semi-sync", "sync":
		return SemiSync, nil
	}
	return Async, fmt.Errorf("replica: unknown ack mode %q (want async or semisync)", s)
}

// Hello opens (or reopens) a replication stream: the primary announces who
// it is, which incarnation it serves, and where its log ends.
type Hello struct {
	// Site is the replicated site's name; primary and standby must agree.
	Site string
	// Incarnation is the primary's fencing number; a standby that has seen
	// a newer one rejects the stream.
	Incarnation uint64
	// NextLSN is the primary's next append position.
	NextLSN uint64
}

// HelloReply tells the primary where to resume the stream.
type HelloReply struct {
	// NextLSN is the first LSN the standby is missing. When it is below the
	// primary's oldest retained record the primary bootstraps the standby
	// from a checkpoint snapshot instead.
	NextLSN uint64
	// Incarnation is the standby's fencing number, so a primary can detect
	// it is stale even on an otherwise clean handshake.
	Incarnation uint64
}

// Snapshot bootstraps a standby that is too far behind to catch up from
// retained log segments: a full site checkpoint plus the LSN it covers.
// The stream resumes at Cover+1.
type Snapshot struct {
	Site        string
	Incarnation uint64
	Cover       uint64
	Data        []byte
}

// Batch carries a contiguous run of journal records. Records[0] has LSN
// From; a standby whose next expected LSN differs rejects the batch and the
// primary re-synchronizes from a fresh handshake.
type Batch struct {
	Site        string
	Incarnation uint64
	From        uint64
	Records     [][]byte
}

// Promotion reports the outcome of promoting a standby: the first epoch of
// the new incarnation (brokers retire every cached answer from the old one
// the moment they see it) and the new fencing incarnation.
type Promotion struct {
	Epoch       uint64
	Incarnation uint64
}

// Conn is the primary's handle to one standby. internal/wire provides the
// net/rpc implementation; Direct (below) binds a standby in process.
type Conn interface {
	Handshake(h Hello) (HelloReply, error)
	// ApplySnapshot replaces the standby's state wholesale; it returns the
	// standby's new acknowledged LSN (the snapshot's cover).
	ApplySnapshot(s Snapshot) (uint64, error)
	// Append ships one record batch; it returns the standby's acknowledged
	// LSN after the batch is persisted and applied.
	Append(b Batch) (uint64, error)
	Close() error
}

// Direct binds a primary to an in-process standby — the loopback transport
// tests and single-process federations use.
type Direct struct{ S *Standby }

// Handshake implements Conn.
func (d Direct) Handshake(h Hello) (HelloReply, error) { return d.S.Handshake(h) }

// ApplySnapshot implements Conn.
func (d Direct) ApplySnapshot(s Snapshot) (uint64, error) { return d.S.ApplySnapshot(s) }

// Append implements Conn.
func (d Direct) Append(b Batch) (uint64, error) { return d.S.ApplyBatch(b) }

// Close implements Conn.
func (d Direct) Close() error { return nil }

// ErrDiverged marks a replica whose log is ahead of its primary's: the two
// histories split (for example a standby was promoted, wrote, and was then
// demoted by hand) and only an operator rebuild can reconcile them. The
// sender stops rather than silently truncating either side.
var ErrDiverged = errors.New("replica: standby log ahead of primary; rebuild required")

// Durable incarnation bookkeeping. The fencing number must survive a
// restart — a promoted standby that forgot its incarnation would boot
// willing to follow the zombie it deposed — so it lives in a tiny file next
// to the WAL segments, written with the same tmp+rename+fsync discipline.
const (
	incarnationFile = "replica-incarnation"
	promotedFile    = "replica-promoted"
)

// LoadIncarnation reads the durable fencing number from dir; a missing file
// is incarnation 1 (the first primary of a fresh site).
func LoadIncarnation(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, incarnationFile))
	if errors.Is(err, os.ErrNotExist) {
		return 1, nil
	}
	if err != nil {
		return 0, fmt.Errorf("replica: load incarnation: %w", err)
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("replica: corrupt incarnation file %q", strings.TrimSpace(string(b)))
	}
	return n, nil
}

// StoreIncarnation durably records the fencing number in dir.
func StoreIncarnation(dir string, n uint64) error {
	return writeDurable(filepath.Join(dir, incarnationFile), []byte(strconv.FormatUint(n, 10)+"\n"))
}

// loadPromoted reports whether a durable promotion marker exists, and its
// recorded cause.
func loadPromoted(dir string) (cause string, ok bool) {
	b, err := os.ReadFile(filepath.Join(dir, promotedFile))
	if err != nil {
		return "", false
	}
	return strings.TrimSpace(string(b)), true
}

// storePromoted durably marks the node as promoted, so a restart boots it
// as a primary instead of a standby waiting for a stream that will never
// come.
func storePromoted(dir, cause string) error {
	return writeDurable(filepath.Join(dir, promotedFile), []byte(cause+"\n"))
}

// writeDurable writes path atomically: tmp, fsync, rename, fsync dir.
func writeDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
