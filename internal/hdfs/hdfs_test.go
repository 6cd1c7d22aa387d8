package hdfs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lobster/internal/chirp"
)

func newCluster(t *testing.T, nodes, repl int, blockSize int64) *Cluster {
	t.Helper()
	c, err := NewCluster(nodes, repl, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newCluster(t, 3, 2, 16)
	data := bytes.Repeat([]byte("block-spanning-data;"), 10) // 200 B, 13 blocks
	if err := c.WriteFile("/store/f.root", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/store/f.root")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestEmptyFile(t *testing.T) {
	c := newCluster(t, 2, 1, 16)
	if err := c.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty read: %d bytes, %v", len(got), err)
	}
	st, err := c.Stat("/empty")
	if err != nil || st.Size != 0 || st.IsDir {
		t.Fatalf("stat: %+v, %v", st, err)
	}
}

func TestReplicationSurvivesNodeFailure(t *testing.T) {
	c := newCluster(t, 3, 2, 8)
	data := bytes.Repeat([]byte("x"), 100)
	c.WriteFile("/f", data)
	// Down one node: every block has a second replica elsewhere.
	c.Nodes()[0].SetDown(true)
	got, err := c.ReadFile("/f")
	if err != nil {
		t.Fatalf("read with one node down: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content corrupted by failover")
	}
}

func TestNoReplicationFailsOnNodeLoss(t *testing.T) {
	c := newCluster(t, 1, 1, 8)
	c.WriteFile("/f", []byte("fragile"))
	c.Nodes()[0].SetDown(true)
	if _, err := c.ReadFile("/f"); err == nil {
		t.Fatal("read succeeded with only replica down")
	}
}

func TestOverwriteReclaimsBlocks(t *testing.T) {
	c := newCluster(t, 2, 1, 8)
	c.WriteFile("/f", bytes.Repeat([]byte("a"), 100))
	before := held(c.Nodes()[0]) + held(c.Nodes()[1])
	c.WriteFile("/f", []byte("tiny"))
	after := held(c.Nodes()[0]) + held(c.Nodes()[1])
	if after >= before {
		t.Errorf("blocks not reclaimed: %d -> %d", before, after)
	}
	got, _ := c.ReadFile("/f")
	if string(got) != "tiny" {
		t.Errorf("overwrite content = %q", got)
	}
}

func TestRemove(t *testing.T) {
	c := newCluster(t, 2, 2, 8)
	c.WriteFile("/f", []byte("data"))
	if err := c.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("/f"); err == nil {
		t.Error("removed file readable")
	}
	if err := c.Remove("/f"); err == nil {
		t.Error("double remove succeeded")
	}
	if _, err := c.Stat("/f"); err == nil {
		t.Error("stat of a removed file succeeded")
	}
	for _, n := range c.Nodes() {
		if held(n) != 0 {
			t.Errorf("node %s still holds %d blocks", n.id, held(n))
		}
	}
}

func TestListAndStatDirectories(t *testing.T) {
	c := newCluster(t, 2, 1, 64)
	c.WriteFile("/store/user/a.root", []byte("1"))
	c.WriteFile("/store/user/b.root", []byte("22"))
	c.WriteFile("/store/user/sub/c.root", []byte("333"))
	ls, err := c.List("/store/user")
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 3 {
		t.Fatalf("list = %+v", ls)
	}
	if ls[0].Name != "a.root" || ls[0].Size != 1 {
		t.Errorf("ls[0] = %+v", ls[0])
	}
	if ls[2].Name != "sub" || !ls[2].IsDir {
		t.Errorf("ls[2] = %+v", ls[2])
	}
	st, err := c.Stat("/store")
	if err != nil || !st.IsDir {
		t.Fatalf("stat dir: %+v, %v", st, err)
	}
	if _, err := c.Stat("/nope"); err == nil {
		t.Error("missing path stat succeeded")
	}
}

func TestReplicationPlacementDistinctNodes(t *testing.T) {
	c := newCluster(t, 4, 3, 8)
	c.WriteFile("/f", bytes.Repeat([]byte("z"), 30))
	// Each block must be on 3 distinct nodes: total replicas = blocks*3.
	blocks := 0
	for _, n := range c.Nodes() {
		blocks += held(n)
	}
	if blocks != 4*3 { // 30 bytes / 8 = 4 blocks
		t.Errorf("total replicas = %d, want 12", blocks)
	}
}

func TestConcurrentWritesAndReads(t *testing.T) {
	c := newCluster(t, 4, 2, 1024)
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/c/f%d", i)
			data := bytes.Repeat([]byte{byte(i)}, 3000+i)
			if err := c.WriteFile(path, data); err != nil {
				errs[i] = err
				return
			}
			got, err := c.ReadFile(path)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, data) {
				errs[i] = fmt.Errorf("file %d mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := newCluster(t, 3, 2, 32)
	i := 0
	check := func(data []byte) bool {
		i++
		path := fmt.Sprintf("/prop/f%d", i)
		if err := c.WriteFile(path, data); err != nil {
			return false
		}
		got, err := c.ReadFile(path)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChirpExportOfHDFS(t *testing.T) {
	c := newCluster(t, 2, 2, 1024)
	srv, err := chirp.NewServer(c, "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := chirp.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := bytes.Repeat([]byte("hep-output;"), 500)
	if err := cl.PutFile("/store/out/task1.root", payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetFile("/store/out/task1.root")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("chirp-over-hdfs round trip failed: %v", err)
	}
	// The data must actually live in HDFS blocks.
	if got, err := c.ReadFile("/store/out/task1.root"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("hdfs holds %d bytes, %v", len(got), err)
	}
}

func TestMapReduceWordCountStyle(t *testing.T) {
	c := newCluster(t, 3, 2, 1024)
	c.WriteFile("/in/a", []byte("x y x"))
	c.WriteFile("/in/b", []byte("y z"))
	res, err := c.Run(Job{
		Name:   "count",
		Inputs: []string{"/in/a", "/in/b"},
		Map: func(path string, content []byte, emit func(KV)) error {
			for _, w := range strings.Fields(string(content)) {
				emit(KV{Key: w, Value: []byte{1}})
			}
			return nil
		},
		Reduce: func(key string, values [][]byte, emit func(KV)) error {
			emit(KV{Key: key, Value: []byte(fmt.Sprint(len(values)))})
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intermediate != 5 || len(res.Output) != 3 {
		t.Fatalf("result = %+v", res)
	}
	// Output list is key-sorted.
	for i, want := range []KV{{"x", []byte("2")}, {"y", []byte("2")}, {"z", []byte("1")}} {
		if got := res.Output[i]; got.Key != want.Key || !bytes.Equal(got.Value, want.Value) {
			t.Errorf("output[%d] = %s=%q, want %s=%q", i, got.Key, got.Value, want.Key, want.Value)
		}
	}
}

func TestMapReduceErrorPropagation(t *testing.T) {
	c := newCluster(t, 2, 1, 64)
	c.WriteFile("/in/a", []byte("data"))
	_, err := c.Run(Job{
		Name:   "boom",
		Inputs: []string{"/in/a"},
		Map: func(string, []byte, func(KV)) error {
			return fmt.Errorf("mapper exploded")
		},
		Reduce: func(string, [][]byte, func(KV)) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "mapper exploded") {
		t.Fatalf("map error lost: %v", err)
	}
	_, err = c.Run(Job{
		Name:   "boom2",
		Inputs: []string{"/in/a"},
		Map: func(p string, _ []byte, emit func(KV)) error {
			emit(KV{Key: "k", Value: nil})
			return nil
		},
		Reduce: func(string, [][]byte, func(KV)) error {
			return fmt.Errorf("reducer exploded")
		},
	})
	if err == nil || !strings.Contains(err.Error(), "reducer exploded") {
		t.Fatalf("reduce error lost: %v", err)
	}
	// Missing input file.
	_, err = c.Run(Job{
		Name:   "missing",
		Inputs: []string{"/in/nope"},
		Map:    func(string, []byte, func(KV)) error { return nil },
		Reduce: func(string, [][]byte, func(KV)) error { return nil },
	})
	if err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestMapReduceNilFuncsRejected(t *testing.T) {
	c := newCluster(t, 1, 1, 64)
	if _, err := c.Run(Job{Name: "nil"}); err == nil {
		t.Fatal("job without Map/Reduce accepted")
	}
}

// TestReadFileReservesTheRecordedSize: a file's recorded size is what
// ReadFile reserves for it — one allocation of that size for an honest
// entry, nothing for an empty one — and a corrupt entry claiming a
// terabyte over a kilobyte of blocks gets the kilobyte it holds.
func TestReadFileReservesTheRecordedSize(t *testing.T) {
	c := newCluster(t, 2, 1, 1<<20)
	want := bytes.Repeat([]byte("0123456789abcdef"), 200_001) // 3.05 MiB: four blocks, the last partial
	if err := c.WriteFile("/whole", want); err != nil {
		t.Fatal(err)
	}
	allocatedBy := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var got []byte
	var err error
	n := allocatedBy(func() { got, err = c.ReadFile("/whole") })
	if err != nil || !bytes.Equal(got, want) || cap(got) != len(want) {
		t.Fatalf("ReadFile: %d bytes (cap %d) of %d, %v", len(got), cap(got), len(want), err)
	}
	if limit := uint64(len(want) + len(want)/50 + 64<<10); n > limit {
		t.Errorf("reading %d bytes allocated %d, want at most %d", len(want), n, limit)
	}

	c.WriteFile("/liar", bytes.Repeat([]byte("x"), 1<<10))
	c.files["/liar"].size = 1 << 40
	n = allocatedBy(func() { got, err = c.ReadFile("/liar") })
	if err != nil || len(got) != 1<<10 || n >= 4<<20 {
		t.Errorf("1 TiB recorded over 1 KiB of blocks: %d bytes, %v, %d allocated; want the kilobyte under 4 MiB", len(got), err, n)
	}

	c.WriteFile("/empty", nil)
	if got, err = c.ReadFile("/empty"); err != nil || got != nil {
		t.Errorf("empty file: %d bytes (cap %d), %v; want no allocation", len(got), cap(got), err)
	}

	// A block that cannot be read fails the whole read, whatever arrived.
	c.WriteFile("/fragile", want)
	for _, node := range c.Nodes() {
		node.SetDown(true)
	}
	if got, err = c.ReadFile("/fragile"); err == nil || got != nil {
		t.Errorf("unreadable block: %d bytes, %v; want an error and nothing", len(got), err)
	}
}

// held counts the block replicas n stores.
func held(n *DataNode) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.blocks)
}
