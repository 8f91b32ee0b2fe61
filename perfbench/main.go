// Command perfbench is the repository benchmark: it runs one seeded
// workload against the program's public entry points, checks every
// answer, and prints each metric with its unit and sample count, ending
// with a one-line JSON result.
//
// Usage, from the repository root:
//
//	sh perfbench/run.sh --workload serve-read --seed 1 --seconds 30 --trace 0
//	sh perfbench/run.sh --workload all --seed 1 --seconds 30
//
// Workloads are serve-read, serve-write and sweep; "all" runs the three
// in turn, each in its own process. --trace 1 makes the traced run,
// which prints the per-layer metrics instead of the end-to-end ones. It
// measures every layer on the workload that exercises it, so it runs
// the same passes whatever --workload names (which must still be one of
// the workloads): a result line must carry every per-layer metric.
// See README.md in this directory for what each number means.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

const (
	// benchDir is this directory, relative to the repository root the
	// benchmark runs from.
	benchDir = "perfbench"
	// buildDir holds the benchmark's build outputs and span dumps.
	buildDir = ".bench_build"
)

var serveWorkloads = map[string]serveWorkload{serveRead.name: serveRead, serveWrite.name: serveWrite}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve-read, serve-write, sweep, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "seconds of measurement per run")
	trace := fs.Int("trace", 0, "1 makes the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	d := time.Duration(*seconds) * time.Second
	rep := newReport()
	serve, isServe := serveWorkloads[*workload]
	var checksum string
	switch {
	case *trace == 1:
		// The traced run replays both serve workloads' op streams.
		checksum = serveRead.name + ":" + serveRead.checksum(*seed) + "," +
			serveWrite.name + ":" + serveWrite.checksum(*seed)
	case isServe:
		checksum = serve.checksum(*seed)
	}
	var err error
	switch {
	case !isServe && *workload != "sweep":
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want serve-read, serve-write, sweep or all)\n", *workload)
		return 2
	case *trace == 1:
		err = runTrace(*seed, d, rep)
	case isServe:
		err = runServe(serve, *seed, d, rep)
	default:
		err = runSweep(d, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s trace=%d seconds=%d\n%s\n", *workload, *trace, *seconds, captureEnv(*seed, checksum))
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, so each reports its
// own peak memory, and fails if any of them does. The traced run covers
// every layer whatever --workload names, so with trace set it runs once.
func runAll(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workloads := []string{serveRead.name, serveWrite.name, "sweep"}
	if trace == 1 {
		workloads = workloads[:1]
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}
