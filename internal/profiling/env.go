package profiling

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env is the environment block of a BENCH_*.json artifact: the commit
// measured (with -dirty when tracked files differ from it) and the
// machine and toolchain the numbers came from.
type Env struct {
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

// CurrentEnv reads the environment block of this process. The commit is
// "unknown" outside a git checkout.
func CurrentEnv() Env {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			commit += "-dirty"
		}
	}
	return Env{Commit: commit, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(), Go: runtime.Version()}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
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
