package hdfs

import (
	"fmt"
	"sort"
	"sync"
)

// KV is one key-value pair flowing through a MapReduce job.
type KV struct {
	Key   string
	Value []byte
}

// MapFunc processes one input file (name and content), emitting intermediate
// pairs. Implementations must be safe for concurrent calls.
type MapFunc func(path string, content []byte, emit func(KV)) error

// ReduceFunc processes one key and all its values (in emission order),
// emitting output pairs. Implementations must be safe for concurrent calls.
type ReduceFunc func(key string, values [][]byte, emit func(KV)) error

// Job describes a MapReduce execution over files in a Cluster.
type Job struct {
	Name string
	// Inputs are the HDFS paths to map over.
	Inputs []string
	Map    MapFunc
	Reduce ReduceFunc
}

// workers bounds the map and the reduce phase's parallelism each.
const workers = 4

// Result summarises a completed job.
type Result struct {
	InputFiles   int
	Intermediate int  // intermediate pairs shuffled
	Output       []KV // all reduce emissions, sorted by key
}

// Run executes the job to completion. Map tasks run concurrently over input
// files; the shuffle groups intermediate pairs by key; reduce tasks run
// concurrently over keys; outputs are written back to the cluster.
func (c *Cluster) Run(job Job) (*Result, error) {
	if job.Map == nil || job.Reduce == nil {
		return nil, fmt.Errorf("hdfs: job %q needs Map and Reduce", job.Name)
	}
	// Map phase.
	type mapOut struct {
		pairs []KV
		err   error
	}
	inputs := make(chan string)
	outs := make(chan mapOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range inputs {
				content, err := c.ReadFile(path)
				if err != nil {
					outs <- mapOut{err: fmt.Errorf("map input %s: %w", path, err)}
					continue
				}
				var pairs []KV
				err = job.Map(path, content, func(kv KV) { pairs = append(pairs, kv) })
				outs <- mapOut{pairs: pairs, err: err}
			}
		}()
	}
	go func() {
		for _, p := range job.Inputs {
			inputs <- p
		}
		close(inputs)
		wg.Wait()
		close(outs)
	}()

	groups := make(map[string][][]byte)
	intermediate := 0
	var firstErr error
	for o := range outs {
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
		for _, kv := range o.pairs {
			groups[kv.Key] = append(groups[kv.Key], kv.Value)
			intermediate++
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("hdfs: job %q map phase: %w", job.Name, firstErr)
	}

	// Reduce phase: deterministic key order, bounded concurrency.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	type redOut struct {
		pairs []KV
		err   error
	}
	keyCh := make(chan string)
	redCh := make(chan redOut, workers)
	var rwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for k := range keyCh {
				var pairs []KV
				err := job.Reduce(k, groups[k], func(kv KV) { pairs = append(pairs, kv) })
				redCh <- redOut{pairs: pairs, err: err}
			}
		}()
	}
	go func() {
		for _, k := range keys {
			keyCh <- k
		}
		close(keyCh)
		rwg.Wait()
		close(redCh)
	}()

	var output []KV
	for o := range redCh {
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
		output = append(output, o.pairs...)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("hdfs: job %q reduce phase: %w", job.Name, firstErr)
	}
	sort.Slice(output, func(i, j int) bool { return output[i].Key < output[j].Key })

	return &Result{
		InputFiles:   len(job.Inputs),
		Intermediate: intermediate,
		Output:       output,
	}, nil
}
