package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// compare and spread read result documents written by `bench run -out`.
// A document may hold many runs of a workload (-runs N); per (workload,
// metric) they are summarised by median and quartiles.

// series is every value of one metric of one workload in one set.
type series struct {
	unit     string
	contract string
	values   []float64
}

// set is one side of a comparison: workload → metric → series.
type set map[string]map[string]*series

func loadSet(paths []string, traced bool) (set, error) {
	out := set{}
	for _, p := range paths {
		doc, err := readSuite(p)
		if err != nil {
			return nil, err
		}
		for _, run := range doc.Runs {
			if run.Traced != traced {
				continue
			}
			byMetric := out[run.Workload]
			if byMetric == nil {
				byMetric = map[string]*series{}
				out[run.Workload] = byMetric
			}
			for name, v := range run.Metrics {
				s := byMetric[name]
				if s == nil {
					s = &series{unit: v.Unit, contract: v.Contract}
					byMetric[name] = s
				}
				s.values = append(s.values, v.Value)
			}
		}
	}
	return out, nil
}

// metricNames lists a workload's metrics in print order.
func metricNames(m map[string]*series) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// gate is how one metric is judged.
type gate struct {
	bound  float64
	better string
	gated  bool
}

// gateFor finds a metric's rule: its BENCHMARK.json entry (by the
// contract slot it fills), or one of the two rules the contract cannot
// express — failed_share may not rise at all, max_rate_ok may not step
// down.
func gateFor(con *contract, name string, s *series) gate {
	switch name {
	case "failed_share":
		return gate{bound: 0, better: "lower", gated: true}
	case "max_rate_ok":
		return gate{bound: 0, better: "higher", gated: true}
	}
	for _, m := range con.EndToEnd {
		if m.Name == s.contract {
			return gate{bound: m.Bound, better: m.Better, gated: true}
		}
	}
	return gate{}
}

// worsening is how much worse b is than a, as a share of a (negative
// when b is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		if (better == "lower") == (b > a) {
			return 1
		}
		return -1
	}
	if better == "lower" {
		return (b - a) / a
	}
	return (a - b) / a
}

func cmdCompare(args []string) error {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	contractPath := fl.String("contract", "BENCHMARK.json", "the benchmark contract: metric bounds")
	layers := fl.Bool("layers", false, "compare the traced runs' per-layer metrics instead (no bounds, no verdicts)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() < 2 {
		return fmt.Errorf("compare needs a baseline document and at least one more")
	}
	con, err := readContract(*contractPath)
	if err != nil {
		return err
	}
	base, err := loadSet(fl.Args()[:1], *layers)
	if err != nil {
		return err
	}
	bad := false
	for _, path := range fl.Args()[1:] {
		other, err := loadSet([]string{path}, *layers)
		if err != nil {
			return err
		}
		fmt.Printf("%s  →  %s\n", fl.Arg(0), path)
		tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1 q3]\tB median [q1 q3]\tchange\tbound\tverdict")
		for _, wl := range workloadNames {
			for _, n := range metricNames(base[wl]) {
				a, b := base[wl][n], other[wl][n]
				if b == nil {
					continue
				}
				a1, a2, a3 := quartiles(a.values)
				b1, b2, b3 := quartiles(b.values)
				g := gateFor(con, n, a)
				verdict, bound, change := "-", "-", "-"
				if g.gated && !*layers {
					w := worsening(a2, b2, g.better)
					change = fmt.Sprintf("%+.1f%%", 100*w)
					bound = fmt.Sprintf("%.0f%%", 100*g.bound)
					switch {
					case g.bound > 0 && max(spread(a.values), spread(b.values)) > g.bound:
						// The runs of one side disagree by more than the
						// bound: the metric cannot be called unchanged.
						verdict = "unresolved"
					case w > g.bound:
						verdict, bad = "regressed", true
					default:
						verdict = "ok"
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g %.4g]\t%.4g [%.4g %.4g]\t%s\t%s\t%s\n",
					wl, n, a.unit, a2, a1, a3, b2, b1, b3, change, bound, verdict)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if bad {
		return fmt.Errorf("at least one gated metric regressed")
	}
	return nil
}

// spreadRow is one metric's calibration record.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Contract string  `json:"contract,omitempty"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	// Spread is (Q3 − Q1) / median, the figure the contract's acceptance
	// check computes.
	Spread float64 `json:"spread"`
	// Gated is false for a metric whose spread is too wide to hold a
	// bound: it stays in the output under its name, but no change is
	// judged by it.
	Gated bool `json:"gated"`
}

// cmdSpread is the calibration step: per metric, the median and the
// interquartile spread over the runs of unchanged code.
func cmdSpread(args []string) error {
	fl := flag.NewFlagSet("spread", flag.ContinueOnError)
	contractPath := fl.String("contract", "BENCHMARK.json", "the benchmark contract: metric bounds")
	out := fl.String("out", "", "write the summary (JSON) here")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() == 0 {
		return fmt.Errorf("spread needs at least one result document")
	}
	con, err := readContract(*contractPath)
	if err != nil {
		return err
	}
	s, err := loadSet(fl.Args(), false)
	if err != nil {
		return err
	}
	var rows []spreadRow
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tslot\tunit\truns\tmedian\tq1\tq3\tspread\tbound\tgated")
	for _, wl := range workloadNames {
		for _, n := range metricNames(s[wl]) {
			ser := s[wl][n]
			q1, q2, q3 := quartiles(ser.values)
			g := gateFor(con, n, ser)
			row := spreadRow{Workload: wl, Metric: n, Contract: ser.contract, Unit: ser.unit,
				Runs: len(ser.values), Q1: q1, Median: q2, Q3: q3, Spread: spread(ser.values)}
			row.Gated = g.gated && (g.bound == 0 || row.Spread <= g.bound)
			rows = append(rows, row)
			bound := "-"
			if g.gated {
				bound = fmt.Sprintf("%.0f%%", 100*g.bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.1f%%\t%s\t%v\n",
				wl, n, ser.contract, ser.unit, row.Runs, q2, q1, q3, 100*row.Spread, bound, row.Gated)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if *out != "" {
		return writeJSON(*out, rows)
	}
	return nil
}
