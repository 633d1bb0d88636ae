package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// value is one reported number. Samples is how many observations stand
// behind it (operations for a rate, latencies for a percentile, spans for
// a layer figure).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
	// Contract names the BENCHMARK.json end-to-end metric this value is
	// reported as when the driver runs a single workload. The contract
	// wants one metric list for all workloads, so each workload's own
	// figure (task latency, TTFB, save latency, …) fills the shared slot.
	Contract string `json:"contract,omitempty"`
}

// runDoc is the result of one workload run, traced or untraced.
type runDoc struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	PlanHash  string           `json:"plan_hash"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Layers is the traced run's accounting of where operation time went:
	// per-layer self time in seconds, summing with Residual to OpSeconds.
	Layers *layerTable `json:"layers,omitempty"`
	// Wire is the call-minus-handler table by caller, message and size
	// class.
	Wire []wireRow `json:"wire,omitempty"`
}

// envInfo records what the numbers were measured on.
type envInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	DataDirFS  string  `json:"data_dir_fs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rates      []int   `json:"mixed_open_rates"`
}

// suiteDoc is what `bench run` writes: every run of one invocation.
type suiteDoc struct {
	Schema string   `json:"schema"`
	Env    envInfo  `json:"env"`
	Runs   []runDoc `json:"runs"`
}

const schemaVersion = "d2bench/1"

func (d *runDoc) set(name string, v float64, unit string, samples int64) {
	d.Metrics[name] = value{Value: v, Unit: unit, Samples: samples}
}

func (d *runDoc) setContract(name, contract string, v float64, unit string, samples int64) {
	d.Metrics[name] = value{Value: v, Unit: unit, Samples: samples, Contract: contract}
}

// print writes every metric by name with its unit and sample count.
func (d *runDoc) print(w io.Writer) {
	mode := "untraced"
	if d.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.1fs, plan %s): %d attempted, %d failed\n",
		d.Workload, mode, d.Seed, d.Seconds, d.PlanHash, d.Attempted, d.Failed)
	names := make([]string, 0, len(d.Metrics))
	for n := range d.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := d.Metrics[n]
		alias := ""
		if v.Contract != "" && v.Contract != n {
			alias = "  [" + v.Contract + "]"
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-8s n=%d%s\n", n, v.Value, v.Unit, v.Samples, alias)
	}
	if d.Layers != nil {
		d.Layers.print(w)
	}
	for _, e := range d.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// contractLine is the single JSON object the benchmark contract wants as
// the last line of standard output.
func (d *runDoc) contractLine(defs []contractMetric) (string, error) {
	type cv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]cv `json:"metrics"`
	}{Correct: d.Failed == 0, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]cv{}}
	byContract := map[string]value{}
	for n, v := range d.Metrics {
		key := v.Contract
		if d.Traced {
			key = n
		}
		if key != "" {
			byContract[key] = v
		}
	}
	for _, def := range defs {
		v, ok := byContract[def.Name]
		if !ok {
			return "", fmt.Errorf("bench: workload %s reported no %s", d.Workload, def.Name)
		}
		out.Metrics[def.Name] = cv{Value: v.Value, Unit: def.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// contractMetric is one metric entry of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is BENCHMARK.json: the one place metric names, units and
// regression bounds are fixed. The harness reads it rather than keeping
// a second copy.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractWL     `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &c, nil
}

// currentEnv gathers the environment record.
func currentEnv(seed uint64, seconds float64, clients int, dataDir string) envInfo {
	return envInfo{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		DataDirFS:  fsType(dataDir),
		Seed:       seed,
		Seconds:    seconds,
		Rates:      mixedRates[:],
	}
}

// gitCommit asks git for HEAD; outside a repository (the driver's
// checkout is a plain directory) the commit is recorded as unknown.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir (Linux magic numbers).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// procStatusMB reads one memory field of /proc/self/status in MB. Load
// clients and all five nodes share the process, so its resident set is
// the whole system's memory.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if n, _ := fmt.Sscanf(sc.Text(), field+": %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

// rssSampler reads VmRSS twice a second while a phase runs. The median
// sample is the steady figure; the high-water mark (VmHWM) is reported
// next to it but swings with where a GC cycle happened to fall.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.samples = append(s.samples, procStatusMB("VmRSS"))
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median sample.
func (s *rssSampler) finish() (float64, int64) {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		return procStatusMB("VmRSS"), 1
	}
	return median(s.samples), int64(len(s.samples))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSuite(path string) (*suiteDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d suiteDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if d.Schema != schemaVersion {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, d.Schema, schemaVersion)
	}
	return &d, nil
}
