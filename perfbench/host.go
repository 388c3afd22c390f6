package main

// Host and provenance record printed with every result.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// hostRecord describes where and on what code a run happened.
func hostRecord(cfg config) string {
	rec := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"source":     sourceFingerprint(),
		"state_fs":   fsType(cfg.stateRoot),
		"traffic":    "in-process netsim simulator; no packet leaves the process (no real link, no loopback)",
	}
	b, _ := json.Marshal(rec)
	return string(b)
}

// gitCommit reads HEAD from a .git directory in the working directory,
// without running git. Benchmark checkouts are often plain file trees;
// the source fingerprint identifies the code there.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown (unresolved " + ref + ")"
}

// sourceFingerprint hashes every Go source and module file under the
// working directory, in path order.
func sourceFingerprint() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16] + " over " + strconv.Itoa(len(files)) + " files"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strings.ToLower(hex.EncodeToString([]byte{byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type)}))
}
