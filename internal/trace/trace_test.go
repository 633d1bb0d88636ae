package trace

import (
	"testing"
	"time"
)

func sec(s int) time.Duration { return time.Duration(s) * time.Second }

func TestBlockSpan(t *testing.T) {
	tests := []struct {
		name      string
		ev        Event
		wantFirst int64
		wantCount int64
	}{
		{"first block", Event{Op: OpRead, Offset: 0, Length: 1}, 1, 1},
		{"exactly one block", Event{Op: OpRead, Offset: 0, Length: BlockSize}, 1, 1},
		{"spans two", Event{Op: OpRead, Offset: BlockSize - 1, Length: 2}, 1, 2},
		{"second block", Event{Op: OpRead, Offset: BlockSize, Length: 10}, 2, 1},
		{"large read", Event{Op: OpRead, Offset: 0, Length: 5 * BlockSize}, 1, 5},
		{"delete touches none", Event{Op: OpDelete}, 1, 0},
		{"empty read", Event{Op: OpRead, Offset: 100, Length: 0}, 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			first, count := tt.ev.BlockSpan()
			if first != tt.wantFirst || count != tt.wantCount {
				t.Errorf("BlockSpan() = (%d, %d), want (%d, %d)", first, count, tt.wantFirst, tt.wantCount)
			}
		})
	}
}

func TestFileNumBlocks(t *testing.T) {
	tests := []struct {
		size int64
		want int64
	}{
		{0, 0}, {1, 1}, {BlockSize, 1}, {BlockSize + 1, 2}, {10 * BlockSize, 10},
	}
	for _, tt := range tests {
		if got := (File{Size: tt.size}).NumBlocks(); got != tt.want {
			t.Errorf("NumBlocks(size=%d) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func newTestTrace(events []Event) *Trace {
	return &Trace{Name: "test", Duration: time.Hour, Users: 4, Events: events}
}

func TestTasksSplitOnGap(t *testing.T) {
	tr := newTestTrace([]Event{
		{At: sec(0), User: 0, Op: OpRead, Length: 1, Path: "/a"},
		{At: sec(2), User: 0, Op: OpRead, Length: 1, Path: "/b"},
		{At: sec(20), User: 0, Op: OpRead, Length: 1, Path: "/c"}, // gap 18s >= 5s
	})
	tasks := Tasks(tr, 5*time.Second, 5*time.Minute)
	if len(tasks) != 2 {
		t.Fatalf("got %d tasks, want 2", len(tasks))
	}
	if len(tasks[0].Events) != 2 || len(tasks[1].Events) != 1 {
		t.Errorf("task sizes = %d, %d; want 2, 1", len(tasks[0].Events), len(tasks[1].Events))
	}
}

func TestTasksPerUser(t *testing.T) {
	tr := newTestTrace([]Event{
		{At: sec(0), User: 0, Op: OpRead, Length: 1, Path: "/a"},
		{At: sec(1), User: 1, Op: OpRead, Length: 1, Path: "/b"},
		{At: sec(2), User: 0, Op: OpRead, Length: 1, Path: "/c"},
		{At: sec(3), User: 1, Op: OpRead, Length: 1, Path: "/d"},
	})
	tasks := Tasks(tr, 5*time.Second, 0)
	if len(tasks) != 2 {
		t.Fatalf("got %d tasks, want 2 (one per user)", len(tasks))
	}
	for _, task := range tasks {
		if len(task.Events) != 2 {
			t.Errorf("user %d task has %d events, want 2", task.User, len(task.Events))
		}
	}
}

func TestTasksDurationCap(t *testing.T) {
	var events []Event
	for i := 0; i < 120; i++ {
		events = append(events, Event{At: sec(i * 4), User: 0, Op: OpRead, Length: 1, Path: "/a"})
	}
	tr := newTestTrace(events)
	tr.Duration = time.Hour
	tasks := Tasks(tr, 5*time.Second, 5*time.Minute)
	if len(tasks) < 2 {
		t.Fatalf("5-minute cap should split the 8-minute run, got %d tasks", len(tasks))
	}
	for _, task := range tasks {
		if task.End-task.Start > 5*time.Minute+sec(4) {
			t.Errorf("task duration %v exceeds cap", task.End-task.Start)
		}
	}
}

func TestTasksChronologicalOrder(t *testing.T) {
	tr := newTestTrace([]Event{
		{At: sec(0), User: 1, Op: OpRead, Length: 1, Path: "/a"},
		{At: sec(1), User: 0, Op: OpRead, Length: 1, Path: "/b"},
		{At: sec(30), User: 1, Op: OpRead, Length: 1, Path: "/c"},
	})
	tasks := Tasks(tr, 5*time.Second, 0)
	for i := 1; i < len(tasks); i++ {
		if tasks[i].Start < tasks[i-1].Start {
			t.Error("tasks not in chronological order")
		}
	}
}

func TestValidate(t *testing.T) {
	good := newTestTrace([]Event{{At: sec(1), User: 0, Op: OpRead, Length: 1, Path: "/a"}})
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	unsorted := newTestTrace([]Event{
		{At: sec(2), User: 0, Op: OpRead, Length: 1},
		{At: sec(1), User: 0, Op: OpRead, Length: 1},
	})
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted trace accepted")
	}
	badUser := newTestTrace([]Event{{At: sec(1), User: 99, Op: OpRead, Length: 1}})
	if err := badUser.Validate(); err == nil {
		t.Error("out-of-range user accepted")
	}
	badOp := newTestTrace([]Event{{At: sec(1), User: 0, Op: 0, Length: 1}})
	if err := badOp.Validate(); err == nil {
		t.Error("invalid op accepted")
	}
}

func TestCatalogLifecycle(t *testing.T) {
	c := NewCatalog([]File{{Path: "/a", Size: 100}})
	if got := c.TotalBytes(); got != 100 {
		t.Fatalf("TotalBytes = %d, want 100", got)
	}
	c.Apply(&Event{Op: OpCreate, Path: "/b", Length: 50})
	if got := c.TotalBytes(); got != 150 {
		t.Fatalf("TotalBytes after create = %d, want 150", got)
	}
	// A write extending /a grows it.
	c.Apply(&Event{Op: OpWrite, Path: "/a", Offset: 90, Length: 30})
	if i, _ := c.Lookup("/a"); c.Size(i) != 120 {
		t.Errorf("size after extending write = %d, want 120", c.Size(i))
	}
	// An interior write does not grow it.
	c.Apply(&Event{Op: OpWrite, Path: "/a", Offset: 0, Length: 10})
	if i, _ := c.Lookup("/a"); c.Size(i) != 120 {
		t.Errorf("size after interior write = %d, want 120", c.Size(i))
	}
	c.Apply(&Event{Op: OpDelete, Path: "/b"})
	if got := c.TotalBytes(); got != 120 {
		t.Fatalf("TotalBytes after delete = %d, want 120", got)
	}
	i, ok := c.Lookup("/b")
	if !ok || c.Live(i) {
		t.Error("deleted file should be known but not live")
	}
}

func TestCatalogStableIndices(t *testing.T) {
	c := NewCatalog(nil)
	a := c.Index("/x")
	b := c.Index("/y")
	if a == b {
		t.Fatal("distinct paths share an index")
	}
	if c.Index("/x") != a {
		t.Error("index of /x changed")
	}
	if c.Path(a) != "/x" {
		t.Errorf("Path(%d) = %q", a, c.Path(a))
	}
}

func TestDailyChurn(t *testing.T) {
	day := 24 * time.Hour
	tr := &Trace{
		Name:     "churn",
		Duration: 3 * day,
		Users:    1,
		Initial:  []File{{Path: "/a", Size: 1000}},
		Events: []Event{
			{At: time.Hour, User: 0, Op: OpCreate, Path: "/b", Length: 500},
			{At: day + time.Hour, User: 0, Op: OpDelete, Path: "/a"},
			{At: day + 2*time.Hour, User: 0, Op: OpWrite, Path: "/b", Offset: 0, Length: 200},
			{At: 2*day + time.Hour, User: 0, Op: OpCreate, Path: "/c", Length: 100},
		},
	}
	churn := DailyChurn(tr)
	if len(churn) != 3 {
		t.Fatalf("got %d days, want 3", len(churn))
	}
	if churn[0].StartBytes != 1000 || churn[0].WrittenBytes != 500 || churn[0].RemovedBytes != 0 {
		t.Errorf("day 0 = %+v", churn[0])
	}
	if churn[1].StartBytes != 1500 || churn[1].WrittenBytes != 200 || churn[1].RemovedBytes != 1000 {
		t.Errorf("day 1 = %+v", churn[1])
	}
	if churn[2].StartBytes != 500 || churn[2].WrittenBytes != 100 {
		t.Errorf("day 2 = %+v", churn[2])
	}
	if r := churn[0].WriteRatio(); r != 0.5 {
		t.Errorf("day 0 write ratio = %v, want 0.5", r)
	}
	if r := churn[1].RemoveRatio(); r < 0.66 || r > 0.67 {
		t.Errorf("day 1 remove ratio = %v, want ~2/3", r)
	}
}

func TestDailyChurnEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty", Duration: 0, Users: 0}
	if got := DailyChurn(tr); got != nil {
		t.Errorf("DailyChurn(empty) = %v, want nil", got)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpRead: "read", OpWrite: "write", OpCreate: "create", OpDelete: "delete", Op(9): "op(9)"} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestBlockBytes(t *testing.T) {
	tests := []struct {
		fileSize, block, want int64
	}{
		{0, 0, InodeBytes},
		{BlockSize * 3, 0, InodeBytes},
		{BlockSize * 2, 2, BlockSize},
		{BlockSize + 5, 2, 5},
		{5, 1, 5},
		{BlockSize, 2, 0},
	}
	for _, tt := range tests {
		if got := BlockBytes(tt.fileSize, tt.block); got != tt.want {
			t.Errorf("BlockBytes(%d, %d) = %d, want %d", tt.fileSize, tt.block, got, tt.want)
		}
	}
}
