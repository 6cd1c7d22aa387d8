// Package hdfs implements a Hadoop-like storage substrate: a namenode
// holding the file namespace and block map, datanodes holding replicated
// blocks, and a MapReduce engine (mapreduce.go) used by Lobster's
// "merging via Hadoop" mode.
//
// In the paper, Hadoop is the storage element behind the Chirp server
// ("within CMS, Hadoop is typically used to take advantage only of the bulk
// storage capabilities"); the merge-via-Hadoop experiment additionally uses
// the Map-Reduce programming model. Both roles are implemented here.
package hdfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"lobster/internal/bufpool"
	"lobster/internal/chirp"
)

// DefaultBlockSize is the block size used when a Cluster is created with
// zero; small enough that unit tests exercise multi-block files.
const DefaultBlockSize = 4 << 20

type blockID int64

// fileMeta is the namenode record for one file.
type fileMeta struct {
	path   string
	size   int64
	blocks []blockID
}

// DataNode stores block replicas in memory.
type DataNode struct {
	id string

	mu     sync.RWMutex
	blocks map[blockID][]byte
	down   bool
}

// SetDown toggles failure injection: a down datanode refuses reads, forcing
// clients onto other replicas.
func (d *DataNode) SetDown(down bool) {
	d.mu.Lock()
	d.down = down
	d.mu.Unlock()
}

func (d *DataNode) put(id blockID, data []byte) {
	d.mu.Lock()
	d.blocks[id] = data
	d.mu.Unlock()
}

func (d *DataNode) get(id blockID) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.down {
		return nil, fmt.Errorf("hdfs: datanode %s is down", d.id)
	}
	b, ok := d.blocks[id]
	if !ok {
		return nil, fmt.Errorf("hdfs: datanode %s missing block %d", d.id, id)
	}
	return b, nil
}

func (d *DataNode) drop(id blockID) {
	d.mu.Lock()
	delete(d.blocks, id)
	d.mu.Unlock()
}

// Cluster is a namenode plus datanodes. It is safe for concurrent use and
// implements chirp.FileSystem, so a chirp.Server can export it as the
// storage element.
type Cluster struct {
	blockSize   int64
	replication int

	mu        sync.RWMutex
	files     map[string]*fileMeta
	locations map[blockID][]*DataNode
	nodes     []*DataNode
	nextBlock blockID
	nextNode  int // round-robin placement cursor
}

// NewCluster creates a cluster with the given number of datanodes.
// replication is clamped to [1, datanodes]; blockSize <= 0 selects
// DefaultBlockSize.
func NewCluster(datanodes int, replication int, blockSize int64) (*Cluster, error) {
	if datanodes < 1 {
		return nil, fmt.Errorf("hdfs: need at least one datanode")
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if replication < 1 {
		replication = 1
	}
	if replication > datanodes {
		replication = datanodes
	}
	c := &Cluster{
		blockSize:   blockSize,
		replication: replication,
		files:       make(map[string]*fileMeta),
		locations:   make(map[blockID][]*DataNode),
	}
	for i := 0; i < datanodes; i++ {
		c.nodes = append(c.nodes, &DataNode{
			id:     fmt.Sprintf("dn%03d", i),
			blocks: make(map[blockID][]byte),
		})
	}
	return c, nil
}

// Nodes returns the cluster's datanodes: the handle a test takes an outage
// through (DataNode.SetDown), as xrootd.DataServer.SetDown is for a replica.
func (c *Cluster) Nodes() []*DataNode { return c.nodes }

// WriteFile implements chirp.FileSystem: it creates or replaces path.
func (c *Cluster) WriteFile(path string, data []byte) error {
	cleaned, err := chirp.CleanPath(path)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.files[cleaned]; ok {
		c.deleteBlocksLocked(old)
	}
	meta := &fileMeta{path: cleaned, size: int64(len(data))}
	for off := int64(0); off < int64(len(data)) || (off == 0 && len(data) == 0); off += c.blockSize {
		end := off + c.blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		id := c.nextBlock
		c.nextBlock++
		block := append([]byte(nil), data[off:end]...)
		var placed []*DataNode
		for r := 0; r < c.replication; r++ {
			node := c.nodes[(c.nextNode+r)%len(c.nodes)]
			node.put(id, block)
			placed = append(placed, node)
		}
		c.nextNode = (c.nextNode + 1) % len(c.nodes)
		c.locations[id] = placed
		meta.blocks = append(meta.blocks, id)
		if len(data) == 0 {
			break
		}
	}
	c.files[cleaned] = meta
	return nil
}

// ReadFile implements chirp.FileSystem.
func (c *Cluster) ReadFile(path string) ([]byte, error) {
	cleaned, err := chirp.CleanPath(path)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	meta, ok := c.files[cleaned]
	if !ok {
		c.mu.RUnlock()
		return nil, fmt.Errorf("hdfs: no such file %s", path)
	}
	blocks := append([]blockID(nil), meta.blocks...)
	size := meta.size
	c.mu.RUnlock()

	// size is recorded metadata: it reserves the destination, and a
	// corrupt or hostile entry gets what bufpool.Arrival gives a liar.
	out := bufpool.Arrival{Announced: size}
	for _, id := range blocks {
		data, err := c.readBlock(id)
		if err != nil {
			return nil, fmt.Errorf("hdfs: %s: %w", path, err)
		}
		out.Write(data)
	}
	return out.Bytes(), nil
}

// readBlock tries each replica in turn.
func (c *Cluster) readBlock(id blockID) ([]byte, error) {
	c.mu.RLock()
	nodes := append([]*DataNode(nil), c.locations[id]...)
	c.mu.RUnlock()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("block %d has no replicas", id)
	}
	var firstErr error
	for _, n := range nodes {
		data, err := n.get(id)
		if err == nil {
			return data, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("all %d replicas of block %d failed: %w", len(nodes), id, firstErr)
}

// Stat implements chirp.FileSystem. Directories exist implicitly as path
// prefixes.
func (c *Cluster) Stat(path string) (chirp.FileInfo, error) {
	cleaned, err := chirp.CleanPath(path)
	if err != nil {
		return chirp.FileInfo{}, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if meta, ok := c.files[cleaned]; ok {
		return chirp.FileInfo{Name: baseName(cleaned), Size: meta.size}, nil
	}
	prefix := strings.TrimSuffix(cleaned, "/") + "/"
	for p := range c.files {
		if strings.HasPrefix(p, prefix) || cleaned == "/" {
			return chirp.FileInfo{Name: baseName(cleaned), IsDir: true}, nil
		}
	}
	return chirp.FileInfo{}, fmt.Errorf("hdfs: no such path %s", path)
}

// List implements chirp.FileSystem.
func (c *Cluster) List(path string) ([]chirp.FileInfo, error) {
	cleaned, err := chirp.CleanPath(path)
	if err != nil {
		return nil, err
	}
	prefix := strings.TrimSuffix(cleaned, "/") + "/"
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := make(map[string]chirp.FileInfo)
	for p, meta := range c.files {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			name := rest[:i]
			seen[name] = chirp.FileInfo{Name: name, IsDir: true}
		} else {
			seen[rest] = chirp.FileInfo{Name: rest, Size: meta.size}
		}
	}
	out := make([]chirp.FileInfo, 0, len(seen))
	for _, fi := range seen {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Remove implements chirp.FileSystem.
func (c *Cluster) Remove(path string) error {
	cleaned, err := chirp.CleanPath(path)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	meta, ok := c.files[cleaned]
	if !ok {
		return fmt.Errorf("hdfs: no such file %s", path)
	}
	c.deleteBlocksLocked(meta)
	delete(c.files, cleaned)
	return nil
}

func (c *Cluster) deleteBlocksLocked(meta *fileMeta) {
	for _, id := range meta.blocks {
		for _, n := range c.locations[id] {
			n.drop(id)
		}
		delete(c.locations, id)
	}
}

func baseName(p string) string {
	if p == "/" {
		return "/"
	}
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

var _ chirp.FileSystem = (*Cluster)(nil)
