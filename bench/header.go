package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// header says where and on what a result was taken, so two result files can
// be told apart before their numbers are compared.
type header struct {
	Host       string  `json:"host"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	SWFRate    int     `json:"swf_rate"`
	OpenRate   float64 `json:"open_rate"`
	// WALFS is the filesystem under the WAL directories: whether fsync was
	// real decides what the wal.* rows mean.
	WALFS string `json:"wal_filesystem"`
}

func newHeader(o options) header {
	host, _ := os.Hostname()
	return header{
		Host:       host,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		SWFRate:    o.swfRate,
		OpenRate:   o.openRate,
		WALFS:      fsType(filepath.Dir(o.out)),
	}
}

// gitSHA is the checkout's commit, or "unknown" outside a git repository
// (the benchmark driver runs from an exported tree).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsNames maps statfs magic numbers (linux/magic.h) to names.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x65735546: "fuse",
	0xF2F52010: "f2fs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}
