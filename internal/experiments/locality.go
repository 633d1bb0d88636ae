package experiments

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/parexp"
	"github.com/defragdht/d2/internal/trace"
)

// Table1 reproduces Table 1: the workload summary (duration, accesses,
// active data).
func Table1(s Scale) *Table {
	t := &Table{
		Title:   "Table 1: Workloads analyzed (synthetic stand-ins, scale=" + s.Name + ")",
		Headers: []string{"Workload", "Duration", "Accesses", "Active Data (MB)"},
	}
	for _, tr := range []*trace.Trace{s.HarvardTrace(), s.HPTrace(), s.WebTrace()} {
		active := tr.TotalInitialBytes()
		t.Rows = append(t.Rows, []string{
			tr.Name,
			tr.Duration.String(),
			fmt.Sprintf("%d", len(tr.Events)),
			mb(active),
		})
	}
	return t
}

// census maps every block that ever exists in a trace to its position in
// the name-ordered layout, supporting the three §4.1 scenarios.
type census struct {
	// nameNode maps block → node under the ordered scenario.
	nameNode map[trace.BlockID]int32
	// fileIdx resolves paths.
	cat *trace.Catalog
	// nodes is the cluster size implied by bytesPerNode.
	nodes int
	// blocksPerNodeBytes is the per-node capacity in bytes.
	perNode int64
}

// buildCensus enumerates all files a trace ever contains (initial plus
// created) and assigns ordered-scenario nodes by cumulative bytes in
// (path, block) order — "keys consistent with the alphabetical ordering of
// block names" (§4.1).
func buildCensus(tr *trace.Trace, perNode int64) *census {
	cat := trace.NewCatalog(nil)
	maxSize := map[int32]int64{}
	note := func(path string, size int64) {
		i := cat.Index(path)
		if size > maxSize[i] {
			maxSize[i] = size
		}
	}
	for _, f := range tr.Initial {
		note(f.Path, f.Size)
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Op {
		case trace.OpCreate:
			note(e.Path, e.Length)
		case trace.OpWrite:
			note(e.Path, e.Offset+e.Length)
		}
	}
	// Order files by path; blocks by number within the file.
	order := make([]int32, 0, cat.NumFiles())
	for i := int32(0); i < int32(cat.NumFiles()); i++ {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		return cat.Path(order[a]) < cat.Path(order[b])
	})
	var total int64
	for _, sz := range maxSize {
		total += sz
	}
	nodes := int((total + perNode - 1) / perNode)
	if nodes < 1 {
		nodes = 1
	}
	c := &census{
		nameNode: make(map[trace.BlockID]int32),
		cat:      cat,
		nodes:    nodes,
		perNode:  perNode,
	}
	var acc int64
	for _, fi := range order {
		size := maxSize[fi]
		blocks := (size + trace.BlockSize - 1) / trace.BlockSize
		// Block 0 (inode) followed by data blocks.
		for b := int64(0); b <= blocks; b++ {
			node := int32(acc / perNode)
			if node >= int32(nodes) {
				node = int32(nodes) - 1
			}
			c.nameNode[trace.BlockID{FileIdx: fi, BlockNum: b}] = node
			acc += trace.BlockBytes(size, b)
		}
	}
	return c
}

// orderedNode returns the block's node under the ordered scenario.
func (c *census) orderedNode(id trace.BlockID) int32 { return c.nameNode[id] }

// hashedBlockNode returns the node under per-block consistent hashing.
func (c *census) hashedBlockNode(id trace.BlockID) int32 {
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(id.FileIdx))
	binary.BigEndian.PutUint64(buf[4:], uint64(id.BlockNum))
	k := keys.HashKey(buf[:])
	return int32(binary.BigEndian.Uint64(k[:8]) % uint64(c.nodes))
}

// hashedFileNode returns the node under per-file consistent hashing.
func (c *census) hashedFileNode(id trace.BlockID) int32 {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(id.FileIdx))
	k := keys.HashKey(buf[:])
	return int32(binary.BigEndian.Uint64(k[:8]) % uint64(c.nodes))
}

// eventBlocks enumerates the block IDs an event touches (inode + data).
func (c *census) eventBlocks(e *trace.Event, fn func(trace.BlockID, int64)) {
	fi, ok := c.cat.Lookup(e.Path)
	if !ok {
		return
	}
	fn(trace.BlockID{FileIdx: fi, BlockNum: 0}, trace.InodeBytes)
	first, count := e.BlockSpan()
	for b := first; b < first+count; b++ {
		fn(trace.BlockID{FileIdx: fi, BlockNum: b}, trace.BlockSize)
	}
}

// Fig3Row is one workload's bar group in Figure 3, normalized so the
// traditional scenario is 1.
type Fig3Row struct {
	Workload    string
	Nodes       int
	Traditional float64 // raw mean nodes per user-hour
	Ordered     float64
	LowerBound  float64
}

// Fig3 reproduces Figure 3: mean nodes accessed per user per hour under
// the traditional, ordered, and lower-bound scenarios.
func Fig3(s Scale) []Fig3Row {
	// Each workload's trace is synthesized inside its own task so the
	// three analyses (and their trace generation) overlap.
	builders := []func() *trace.Trace{s.HarvardTrace, s.HPTrace, s.WebTrace}
	return parexp.Map(s.Workers, len(builders), func(i int) Fig3Row {
		return fig3One(builders[i](), s.BytesPerNode)
	})
}

func fig3One(tr *trace.Trace, perNode int64) Fig3Row {
	c := buildCensus(tr, perNode)
	type userHour struct {
		user int32
		hour int32
	}
	tradSets := map[userHour]map[int32]bool{}
	ordSets := map[userHour]map[int32]bool{}
	bytesAcc := map[userHour]int64{}
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Op != trace.OpRead && e.Op != trace.OpWrite {
			continue
		}
		uh := userHour{user: e.User, hour: int32(e.At / time.Hour)}
		ts := tradSets[uh]
		if ts == nil {
			ts = map[int32]bool{}
			tradSets[uh] = ts
			ordSets[uh] = map[int32]bool{}
		}
		os := ordSets[uh]
		c.eventBlocks(e, func(id trace.BlockID, sz int64) {
			ts[c.hashedBlockNode(id)] = true
			os[c.orderedNode(id)] = true
			bytesAcc[uh] += sz
		})
	}
	var tradSum, ordSum, lbSum float64
	n := 0
	for uh, ts := range tradSets {
		tradSum += float64(len(ts))
		ordSum += float64(len(ordSets[uh]))
		lb := float64(bytesAcc[uh]) / float64(perNode)
		if lb < 1 {
			lb = 1
		}
		lbSum += lb
		n++
	}
	if n == 0 {
		return Fig3Row{Workload: tr.Name, Nodes: c.nodes}
	}
	return Fig3Row{
		Workload:    tr.Name,
		Nodes:       c.nodes,
		Traditional: tradSum / float64(n),
		Ordered:     ordSum / float64(n),
		LowerBound:  lbSum / float64(n),
	}
}

// RenderFig3 formats Figure 3 as a table with both raw and normalized
// values.
func RenderFig3(rows []Fig3Row) *Table {
	t := &Table{
		Title: "Figure 3: Mean nodes accessed per user-hour (normalized to traditional)",
		Headers: []string{"Workload", "Nodes", "Traditional", "Ordered", "LowerBound",
			"Ordered/Trad", "LB/Trad"},
	}
	for _, r := range rows {
		var on, ln float64
		if r.Traditional > 0 {
			on = r.Ordered / r.Traditional
			ln = r.LowerBound / r.Traditional
		}
		t.Rows = append(t.Rows, []string{
			r.Workload, fmt.Sprintf("%d", r.Nodes),
			f2(r.Traditional), f2(r.Ordered), f2(r.LowerBound), f4(on), f4(ln),
		})
	}
	return t
}

// Table2Row is one inter-arrival threshold's row of Table 2.
type Table2Row struct {
	Inter      time.Duration
	MeanBlocks float64
	MeanFiles  float64
	NodesBlock float64 // traditional DHT
	NodesFile  float64 // traditional-file DHT
	NodesD2    float64
}

// Table2 reproduces Table 2: mean objects and mean nodes accessed per task
// under the three systems, for inter ∈ {1 s, 5 s, 15 s, 1 min}.
func Table2(s Scale) []Table2Row {
	tr := s.HarvardTrace()
	c := buildCensus(tr, s.BytesPerNode)
	var rows []Table2Row
	for _, inter := range []time.Duration{time.Second, 5 * time.Second, 15 * time.Second, time.Minute} {
		rows = append(rows, table2One(tr, c, inter))
	}
	return rows
}

func table2One(tr *trace.Trace, c *census, inter time.Duration) Table2Row {
	tasks := trace.Tasks(tr, inter, 5*time.Minute)
	var blocks, files, nb, nf, nd float64
	n := 0
	for ti := range tasks {
		task := &tasks[ti]
		blockSet := map[trace.BlockID]bool{}
		fileSet := map[int32]bool{}
		tradNodes := map[int32]bool{}
		fileNodes := map[int32]bool{}
		d2Nodes := map[int32]bool{}
		touched := false
		for _, ei := range task.Events {
			e := &tr.Events[ei]
			if e.Op != trace.OpRead && e.Op != trace.OpWrite {
				continue
			}
			c.eventBlocks(e, func(id trace.BlockID, _ int64) {
				touched = true
				blockSet[id] = true
				fileSet[id.FileIdx] = true
				tradNodes[c.hashedBlockNode(id)] = true
				fileNodes[c.hashedFileNode(id)] = true
				d2Nodes[c.orderedNode(id)] = true
			})
		}
		if !touched {
			continue
		}
		blocks += float64(len(blockSet))
		files += float64(len(fileSet))
		nb += float64(len(tradNodes))
		nf += float64(len(fileNodes))
		nd += float64(len(d2Nodes))
		n++
	}
	if n == 0 {
		return Table2Row{Inter: inter}
	}
	fn := float64(n)
	return Table2Row{
		Inter:      inter,
		MeanBlocks: blocks / fn,
		MeanFiles:  files / fn,
		NodesBlock: nb / fn,
		NodesFile:  nf / fn,
		NodesD2:    nd / fn,
	}
}

// RenderTable2 formats Table 2.
func RenderTable2(rows []Table2Row) *Table {
	t := &Table{
		Title: "Table 2: Mean objects and nodes accessed per task",
		Headers: []string{"inter", "blocks", "files",
			"nodes(block)", "nodes(file)", "nodes(D2)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Inter.String(), f2(r.MeanBlocks), f2(r.MeanFiles),
			f2(r.NodesBlock), f2(r.NodesFile), f2(r.NodesD2),
		})
	}
	return t
}
