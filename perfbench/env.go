package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"freerideg/internal/metrics"
)

// counters is one reading of the program's exported metrics, keyed by
// the exposition's series name (family plus rendered labels, e.g.
// `fg_servecache_hits_total{cache="predict"}`). Histogram series are
// kept too but unused.
type counters map[string]float64

// readCounters parses the process registry's Prometheus exposition: the
// same counters fgserved serves on /metrics.
func readCounters() counters {
	c := make(counters)
	sc := bufio.NewScanner(strings.NewReader(metrics.Default().Expose()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			c[line[:i]] = v
		}
	}
	return c
}

// delta is the growth of one series since an earlier reading. A series
// only the later reading holds was registered in between and grew from
// 0; check with require that the later reading holds it at all.
func (c counters) delta(before counters, series string) float64 {
	return c[series] - before[series]
}

// require reports the first series the reading lacks: a counter that
// was renamed or never registered, whose growth would otherwise read
// as 0.
func (c counters) require(series ...string) error {
	for _, s := range series {
		if _, ok := c[s]; !ok {
			return fmt.Errorf("counter series %s is missing from the metrics registry", s)
		}
	}
	return nil
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package
// does not name.
const rusageThread = 1

// threadCPU is the user plus system CPU time the calling OS thread has
// used; the caller holds its thread with runtime.LockOSThread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// environment is recorded with every result: a number is only
// comparable with another taken on the same core count, scheduler
// width, toolchain, code and inputs.
type environment struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	Commit     string // git HEAD when the checkout has one
	Source     string // hash of the program's Go sources and go.mod
	Seed       int64
	Checksum   string // loadgen workload checksum ("" on the sweep)
}

func captureEnv(seed int64, checksum string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(".git"),
		Source:     sourceHash(),
		Seed:       seed,
		Checksum:   checksum,
	}
}

func (e environment) String() string {
	commit, sum := e.Commit, e.Checksum
	if commit == "" {
		commit = "none"
	}
	if sum == "" {
		sum = "none"
	}
	return "env nproc=" + strconv.Itoa(e.NProc) +
		" gomaxprocs=" + strconv.Itoa(e.GOMAXPROCS) +
		" go=" + e.GoVersion +
		" commit=" + commit +
		" source=" + e.Source +
		" seed=" + strconv.FormatInt(e.Seed, 10) +
		" checksum=" + sum
}

// gitHead reads HEAD from the git directory without running git; a
// checkout that is not a repository has none.
func gitHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	// After git gc the ref lives only in packed-refs, as "<id> <ref>".
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(strings.TrimSpace(line), " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// sourceHash fingerprints the program under test: every .go file and
// go.mod outside the benchmark's own directory and the build directory,
// in path order. It identifies the code a number was measured on even
// where the checkout carries no git metadata.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", benchDir, buildDir:
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		h.Write([]byte{0})
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
