package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// env is the environment record printed with every result: enough to tell
// whether two results are comparable.
type env struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	GoVersion    string   `json:"goVersion"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NProc        int      `json:"nproc"`
	CPU          string   `json:"cpu"`
	Kernel       string   `json:"kernel"`
	StoreFS      string   `json:"storeFs"`
	Commit       string   `json:"commit"`
	SourceSHA256 string   `json:"sourceSha256"`
	Daemons      int      `json:"daemons"`
	DaemonFlags  []string `json:"daemonFlags"`
	Clients      int      `json:"clients"`
}

func environment(s *session) env {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return env{
		Workload:     s.wl.name,
		Seed:         s.seed,
		Seconds:      s.seconds.Seconds(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPU:          cpuModel(),
		Kernel:       strings.TrimSpace(string(kernel)),
		StoreFS:      fsType(s.dir),
		Commit:       commit(),
		SourceSHA256: sourceHash("."),
		Daemons:      s.wl.daemons,
		DaemonFlags:  s.wl.flags,
		Clients:      s.wl.clients,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir; fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs", 0x9123683E: "btrfs",
		0x58465342: "xfs", 0x65735546: "fuse", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit is the checkout's git commit, or "unknown" when the working
// directory is not the root of a git work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the Go sources under root, so results taken from
// a checkout without git history still name the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
