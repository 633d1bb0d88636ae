package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figureDrivers renders, per command, every table and figure that command
// prints with no selection flags, in its print order: the exact stdout of
// d2sim, d2perf and d2locality at scale s.
func figureDrivers(s Scale) map[string]func() string {
	render := func(ts ...fmt.Stringer) string {
		var b strings.Builder
		for _, t := range ts {
			fmt.Fprintln(&b, t)
		}
		return b.String()
	}
	return map[string]func() string{
		"d2sim": func() string {
			return render(
				RenderFig7(Fig7(s)),
				RenderFig8(Fig8(s)),
				RenderLBSeries("Figure 16: Load imbalance over time, Harvard (normalized std-dev)", Fig16(s)),
				RenderLBSeries("Figure 17: Load imbalance over time, Webcache (normalized std-dev)", Fig17(s)),
				Table3(s),
				Table4(s),
				AblationPointers(s),
				AblationReplicas(s))
		},
		"d2perf": func() string {
			p := RunPerfSweep(s)
			return render(
				Fig9(p), Fig10(p), Fig11(p), Fig12(p), Fig13(p),
				RenderScatter("Figure 14a: access-group latency, D2 vs traditional (seq)", Fig14Scatter(p, false)),
				RenderScatter("Figure 14b: access-group latency, D2 vs traditional (para)", Fig14Scatter(p, true)),
				RenderScatter("Figure 15a: access-group latency, D2 vs traditional-file (seq)", Fig15Scatter(p, false)),
				RenderScatter("Figure 15b: access-group latency, D2 vs traditional-file (para)", Fig15Scatter(p, true)),
				AblationCacheTTL(s),
				AblationHybrid(s))
		},
		"d2locality": func() string {
			return render(Table1(s), RenderFig3(Fig3(s)), RenderTable2(Table2(s)))
		},
	}
}

// TestFiguresGolden pins every printed figure and table, byte for byte, at
// the determinism scale. A simulator refactor that claims no behavioural
// change must leave these files untouched; a change that moves a figure on
// purpose regenerates them and says why.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure in -short mode")
	}
	for name, render := range figureDrivers(determinismScale()) {
		name, render := name, render
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := render(); got != string(want) {
				t.Errorf("%s output differs from testdata/%s.golden:\n%s", name, name, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff names the first line where got and want part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "(equal)"
}
