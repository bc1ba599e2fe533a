// Command benchmark is the repo's end-to-end benchmark: five logistic
// regression workloads trained on the real engine by one closed-loop
// client, a correctness check against a sequential reference, and a
// separate traced mode that attributes a step's wall clock to layers.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the settings of one run of one workload.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	// floors are the least amounts of work however short seconds is;
	// only the smoke test lowers them.
	floors floors
}

// floors are the least amounts of work a run does. Above them, every
// phase of a run lasts a fixed share of -seconds.
type floors struct {
	steps       int // timed steps of an untraced run, over all its sub-runs
	tracedSteps int // traced steps, and steps with telemetry on, of a traced run
	probeReps   int // calls of each probe of a traced run
}

// fullFloors keep at least ten samples beyond the 90th percentile of
// the timed steps however slow the host is.
var fullFloors = floors{steps: 100, tracedSteps: 30, probeReps: 10}

// share returns the given share of the run length.
func (o options) share(f float64) time.Duration {
	return time.Duration(f * o.seconds * float64(time.Second))
}

// defaultSeconds is the run length the committed numbers were taken at;
// BENCHMARK.json has the driver pass the same.
const defaultSeconds = 20

// errFailedOperations is returned once results are printed and some
// operation in them failed.
var errFailedOperations = errors.New("some operations failed")

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// withDefaults gives -trace and -agree, written bare, their values: the
// flag package has no flag that takes a value only sometimes.
func withDefaults(args []string) []string {
	bare := map[string]string{"trace": "1", "agree": "2"}
	out := make([]string, 0, len(args))
	for i, a := range args {
		out = append(out, a)
		def, ok := bare[strings.TrimLeft(a, "-")]
		if !ok || !strings.HasPrefix(a, "-") {
			continue
		}
		if i+1 < len(args) {
			if _, err := strconv.Atoi(args[i+1]); err == nil {
				continue
			}
		}
		out[len(out)-1] = a + "=" + def
	}
	return out
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of the data generator")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase of each workload")
	trace := fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics and writes the spans")
	agree := fs.Int("agree", 0, "run this many full sets, untraced and traced, and compare them")
	scale := fs.Int("scale", 1, "divide the data dimensions by this, for a quick look; committed numbers are at 1")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result and trace files")
	if err := fs.Parse(withDefaults(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o := options{
		seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *outDir,
		floors: fullFloors,
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	switch {
	case *agree > 0:
		return runAgree(o, *scale, *agree)
	case *name != "":
		return runOne(*name, *scale, o)
	default:
		_, err := runSet(o, *scale)
		return err
	}
}

// runFile is where the run of one workload leaves its full result for
// the process that started it.
func runFile(o options, workload string) string {
	kind := "run"
	if o.traced {
		kind = "layers"
	}
	return filepath.Join(o.outDir, kind+"-"+workload+".json")
}

// runOne runs one workload in this process, prints every metric as
// "workload name unit value" and, as the last line, the result object
// the builder's contract asks for.
func runOne(name string, scale int, o options) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	w = w.scaled(scale)
	h := thisHost()
	fmt.Printf("# %s seed=%d seconds=%g traced=%t scale=%d | %s\n", w.Name, o.seed, o.seconds, o.traced, scale, h)
	run := runUntraced
	if o.traced {
		run = runTraced
	}
	steal0, total0 := hostJiffies()
	r, err := run(w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	if steal1, total1 := hostJiffies(); total1 > total0 {
		r.HostStealPct = (steal1 - steal0) / (total1 - total0) * 100
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, d := range defsFor(o.traced) {
		m := r.Metrics[d.Name]
		line.Metrics[d.Name] = m
		fmt.Printf("%s %s %s %v\n", w.Name, d.Name, m.Unit, m.Value)
	}
	if !o.traced {
		fmt.Printf("%s iter_ms_p90 ms %v\n", w.Name, r.P90Ms)
		fmt.Printf("%s full_run_samples_per_s 1/s %v\n", w.Name, r.FullRunSamplesPerS)
	}
	fmt.Printf("%s fail_ratio ratio %v\n", w.Name, r.FailRatio)
	fmt.Printf("# %s: %d steps timed, median ms by third of the run %.4g %.4g %.4g\n", w.Name, r.Steps, r.ThirdsMs[0], r.ThirdsMs[1], r.ThirdsMs[2])
	fmt.Printf("# %s: the hypervisor took %.1f %% of the CPU time of this run (steal in /proc/stat)\n", w.Name, r.HostStealPct)
	for _, e := range r.Errors {
		fmt.Printf("# %s: failed operation: %s\n", w.Name, e)
	}
	if err := writeJSON(runFile(o, w.Name), r); err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d: %w", w.Name, r.Failed, r.Attempted, errFailedOperations)
	}
	return nil
}

// host is where a set of numbers was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s kernel=%s commit=%s", h.NProc, h.GOMAXPROCS, h.Go, h.Kernel, h.Commit)
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown", Commit: "unknown"}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	// Outside a git checkout the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// hostJiffies returns the CPU time the hypervisor gave to other guests
// while this one wanted to run, and all CPU time, since boot, from the
// first line of /proc/stat. Both are 0 where that cannot be read. A run
// with more than a few percent stolen measured the host, not the code.
func hostJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// set is the result of every workload, as written to result.json
// (untraced) or layers.json (traced).
type set struct {
	Host      host      `json:"host"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Scale     int       `json:"scale"`
	Traced    bool      `json:"traced"`
	Workloads []*result `json:"workloads"`
}

// runSet runs every workload, one at a time, each in a child process of
// this same binary, so that peak memory and the engine's buffer pools
// are per workload.
func runSet(o options, scale int) (*set, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &set{Host: thisHost(), Seed: o.seed, Seconds: o.seconds, Scale: scale, Traced: o.traced}
	failed := false
	for _, w := range workloads {
		trace := "0"
		if o.traced {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-scale", fmt.Sprint(scale), "-out", o.outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := os.Remove(runFile(o, w.Name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		if err := cmd.Run(); err != nil {
			// A child that printed results with failed operations also
			// wrote its file; any other failure left none to read.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			failed = true
		}
		var r result
		if err := readJSON(runFile(o, w.Name), &r); err != nil {
			return nil, fmt.Errorf("%s left no result: %w", w.Name, err)
		}
		s.Workloads = append(s.Workloads, &r)
	}
	file := "result.json"
	if o.traced {
		file = "layers.json"
	}
	if err := writeJSON(filepath.Join(o.outDir, file), s); err != nil {
		return nil, err
	}
	fmt.Printf("# wrote %s\n", filepath.Join(o.outDir, file))
	if failed {
		return s, errFailedOperations
	}
	return s, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
