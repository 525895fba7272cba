// Command perfbench is the archive-service benchmark: it builds an
// archive, starts the `xarch serve` stack in-process on a loopback port,
// drives it from one seeded load generator, checks every answer against
// the in-memory reference engine, and prints every metric by name with
// its unit. The last line of its output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// workload runs twice, untraced and traced (ingest episodes alternate
// between the two), and the metrics are the
// per-layer ones plus the tracing overhead. See README.md for the
// workloads and the metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload ingest|read|service --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setups is how many times a run builds its archive and brings the
// server up; setup_s is the median.
const setups = 3

// giveUpAfter is how far past the end of its schedule an open loop keeps
// sending overdue requests before it fails the rest unsent.
const giveUpAfter = 10 * time.Second

// openWindows is how many equal windows of its schedule an open-loop
// run's end-to-end figures take medians over.
const openWindows = 5

func main() {
	workload := flag.String("workload", "", "ingest, read or service")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "load duration in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(workload string, seed int64, seconds time.Duration, traced bool) error {
	p, err := newPlan(workload, seed, seconds.Seconds())
	if err != nil {
		return err
	}
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	setupDir, setupS, err := setUp(p, work)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	// Peak memory is the load's own: return the set-up's garbage to the
	// system and restart the high-water mark from what remains.
	setupRSS, err := peakRSSMB()
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	plain := &phase{}
	phases := []*phase{plain}
	var tr *tracer
	if traced {
		tr = newTracer()
		phases = append(phases, &phase{tracer: tr})
	}
	if err := runPhases(p, setupDir, work, seconds, phases); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	// Before the reference engine is built, and only when the load was
	// untraced alone: the tracer keeps its spans in memory.
	if !traced {
		if plain.peakRSS, err = peakRSSMB(); err != nil {
			return err
		}
	}
	report(p, "set-up", []named{{"peak_rss_mb", setupRSS, "MB", "set-up only, not in the load's figure"}})
	var out output
	for i, ph := range phases {
		if err := ph.check(p); err != nil {
			return err
		}
		reportFailures(ph)
		out.add(ph)
		report(p, []string{"untraced", "traced"}[i], ph.namedMetrics(p, setupS))
	}
	if !traced {
		out.Metrics = plain.endToEnd(setupS)
		return out.print()
	}
	out.Metrics = layerMetrics(p, plain, phases[1], tr)
	tracePath := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return err
	}
	if err := tr.writeJSONL(tracePath); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %s\n", tracePath)
	return out.print()
}

// add counts a phase's operations into the result line.
func (o *output) add(ph *phase) {
	o.Attempted += len(ph.results)
	o.Failed += ph.failed()
	o.Correct = o.Failed == 0
}

func (o *output) print() error {
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setUp builds the set-up archive and brings the server up, setups
// times, each in a fresh directory, and returns the last archive (with
// its server stopped) and the median set-up time. Input generation and
// the reference engine are outside the timing.
func setUp(p *plan, work string) (string, float64, error) {
	var times []float64
	var dir string
	for i := range setups {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return "", 0, err
			}
		}
		dir = filepath.Join(work, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		ext, err := openExt(dir, p.spec, nil)
		if err != nil {
			return "", 0, err
		}
		if err := archiveDocs(ext, p.setupDocs, p.setupBatch); err != nil {
			ext.Close()
			return "", 0, err
		}
		s, err := serve(ext, nil)
		if err != nil {
			return "", 0, err
		}
		if err := s.up(); err != nil {
			s.stop()
			return "", 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if err := s.stop(); err != nil {
			return "", 0, err
		}
	}
	return dir, median(times), nil
}

// peakRSSMB is the process's peak resident set size since it started or
// since resetPeakRSS, in MB: VmHWM in /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the peak resident set size from the current one.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
