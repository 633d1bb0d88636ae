package synth

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"github.com/defragdht/d2/internal/trace"
)

// TreeConfig controls synthetic directory tree generation.
type TreeConfig struct {
	// Root is the path prefix under which the tree is generated, without a
	// trailing slash (e.g. "/home/u7").
	Root string
	// TargetBytes is the approximate total size of generated files.
	TargetBytes int64
	// MeanSubdirs is the mean number of subdirectories per directory.
	MeanSubdirs float64
	// MeanFiles is the mean number of files per directory.
	MeanFiles float64
	// MaxDepth bounds directory nesting below Root.
	MaxDepth int
	// SizeMu and SizeSigma parameterize the lognormal file size (bytes).
	// Zero values default to median 8 KB with sigma 2.0.
	SizeMu    float64
	SizeSigma float64
	// MaxFileBytes caps individual file sizes (0 means 256 MB).
	MaxFileBytes int64
}

func (c *TreeConfig) applyDefaults() {
	if c.MeanSubdirs == 0 {
		c.MeanSubdirs = 3
	}
	if c.MeanFiles == 0 {
		c.MeanFiles = 8
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 6
	}
	if c.SizeMu == 0 {
		c.SizeMu = 9.01 // ln(8192): median 8 KB
	}
	if c.SizeSigma == 0 {
		c.SizeSigma = 2.0
	}
	if c.MaxFileBytes == 0 {
		c.MaxFileBytes = 256 << 20
	}
}

// Dir is one directory of a generated tree with its direct files.
type Dir struct {
	Path  string
	Files []trace.File
}

// Bytes returns the total size of the directory's direct files.
func (d *Dir) Bytes() int64 {
	var total int64
	for _, f := range d.Files {
		total += f.Size
	}
	return total
}

// GenTree generates a directory tree under cfg.Root totalling roughly
// cfg.TargetBytes, returning directories in preorder-traversal order. File
// and directory names are short and unique within their parent.
func GenTree(rng *rand.Rand, cfg TreeConfig) []Dir {
	cfg.applyDefaults()
	var out []Dir
	var remaining = cfg.TargetBytes

	var walk func(path string, depth int)
	walk = func(path string, depth int) {
		if remaining <= 0 {
			return
		}
		d := Dir{Path: path}
		nFiles := 1 + poisson(rng, cfg.MeanFiles-1)
		for i := 0; i < nFiles && remaining > 0; i++ {
			size := clampI64(int64(lognormal(rng, cfg.SizeMu, cfg.SizeSigma)), 1, cfg.MaxFileBytes)
			if size > remaining {
				size = remaining
			}
			d.Files = append(d.Files, trace.File{
				Path: fmt.Sprintf("%s/f%03d", path, i),
				Size: size,
			})
			remaining -= size
		}
		out = append(out, d)
		if depth >= cfg.MaxDepth || remaining <= 0 {
			return
		}
		nSub := poisson(rng, cfg.MeanSubdirs)
		for i := 0; i < nSub && remaining > 0; i++ {
			walk(fmt.Sprintf("%s/d%03d", path, i), depth+1)
		}
	}
	// Keep sprouting top-level subtrees until the byte budget is spent, so
	// TargetBytes is met even when a single walk terminates early.
	for i := 0; remaining > 0; i++ {
		walk(fmt.Sprintf("%s/t%03d", cfg.Root, i), 0)
		if i > 1<<20 {
			break // safety: cannot happen with sane configs
		}
	}
	return out
}

// TotalBytes sums the sizes of all files in dirs.
func TotalBytes(dirs []Dir) int64 {
	var total int64
	for i := range dirs {
		total += dirs[i].Bytes()
	}
	return total
}

// sortEventsStable sorts events by time, breaking ties by user then path so
// generation order does not leak into the result.
func sortEventsStable(events []trace.Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		if events[i].User != events[j].User {
			return events[i].User < events[j].User
		}
		return events[i].Path < events[j].Path
	})
}
