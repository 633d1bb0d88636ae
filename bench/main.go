// Command bench is the D2 benchmark: four live-ring workloads measured
// end to end through the public facade, and layer by layer through
// wrappers on the interfaces the layers meet at. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "spread":
		err = cmdSpread(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bench run [-workload NAME] [-seed N] [-seconds N] [-trace 0|1] [-runs N] [-out FILE] [-trace-out FILE]
  bench compare [-layers] A.json B.json [more.json ...]
  bench spread [-out FILE] A.json [more.json ...]`)
}

// loadClients is how many goroutines generate load: min(nproc, 2).
func loadClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func cmdRun(args []string) error {
	fl := flag.NewFlagSet("run", flag.ContinueOnError)
	workloadName := fl.String("workload", "", "run one workload and end with the contract's JSON line (default: all four, untraced then traced)")
	seed := fl.Uint64("seed", 1, "seed for every generator")
	seconds := fl.Float64("seconds", 0, "timed phase per workload in seconds (default: run_seconds from BENCHMARK.json)")
	trace := fl.Int("trace", -1, "0 = untraced runs only (end-to-end metrics), 1 = traced runs only (per-layer metrics); default both, or 0 with -workload")
	runs := fl.Int("runs", 1, "without -workload: repeat the suite this many times with seeds seed, seed+1, …")
	out := fl.String("out", "", "write the result document (JSON) here")
	traceOut := fl.String("trace-out", "", "write the traced run's spans here as Chrome trace JSON")
	contractPath := fl.String("contract", "BENCHMARK.json", "the benchmark contract: metric names, units, bounds")
	dataRoot := fl.String("data", ".bench_build/data", "directory for the ring's data directories")
	if err := fl.Parse(args); err != nil {
		return err
	}
	con, err := readContract(*contractPath)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(con.RunSeconds)
	}
	ctx := context.Background()
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "[%s] "+format+"\n", append([]any{time.Now().Format("15:04:05")}, a...)...)
	}
	base := runCfg{seconds: *seconds, sc: fullScale, clients: loadClients(), dataRoot: *dataRoot, traceOut: *traceOut}
	suite := suiteDoc{Schema: schemaVersion}

	if *workloadName != "" {
		cfg := base
		cfg.workload, cfg.seed, cfg.traced = *workloadName, *seed, *trace == 1
		doc, err := runOne(ctx, cfg, logf)
		if err != nil {
			return err
		}
		suite.Env = currentEnv(*seed, *seconds, cfg.clients, *dataRoot)
		suite.Runs = append(suite.Runs, *doc)
		if *out != "" {
			if err := writeJSON(*out, suite); err != nil {
				return err
			}
		}
		doc.print(os.Stdout)
		defs := con.EndToEnd
		if cfg.traced {
			defs = con.PerLayer
		}
		line, err := doc.contractLine(defs)
		if err != nil {
			return err
		}
		fmt.Println(line)
		return nil
	}

	// The suite runs every workload in a process of its own, exactly as
	// the driver does: a run's heap, goroutines and page-cache footprint
	// must not become the next run's starting conditions.
	suite.Env = currentEnv(*seed, *seconds, base.clients, *dataRoot)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dataRoot, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(*dataRoot, fmt.Sprintf("suite-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	for i := 0; i < *runs; i++ {
		for _, name := range workloadNames {
			for _, traced := range []int{0, 1} {
				if *trace >= 0 && *trace != traced {
					continue
				}
				args := []string{"run", "-workload", name, "-trace", fmt.Sprint(traced),
					"-seed", fmt.Sprint(*seed + uint64(i)), "-seconds", fmt.Sprint(*seconds),
					"-contract", *contractPath, "-data", *dataRoot, "-out", tmp}
				if traced == 1 && *traceOut != "" {
					args = append(args, "-trace-out", fmt.Sprintf("%s.%s.%d", *traceOut, name, *seed+uint64(i)))
				}
				cmd := exec.Command(exe, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s (trace %d, seed %d): %w", name, traced, *seed+uint64(i), err)
				}
				// Everything but the contract's closing JSON line.
				lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
				doc, err := readSuite(tmp)
				if err != nil {
					return err
				}
				suite.Runs = append(suite.Runs, doc.Runs...)
			}
		}
	}
	if *out != "" {
		return writeJSON(*out, suite)
	}
	return nil
}
