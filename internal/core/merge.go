package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"lobster/internal/chirp"
	"lobster/internal/faultinject"
	"lobster/internal/hdfs"
	"lobster/internal/retry"
	"lobster/internal/wire"
	"lobster/internal/wq"
)

// outputFile is one unmerged task output on the storage element.
type outputFile struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// MergePool is the chirp connection pool a worker process's merge tasks
// share, with the optional retry policy and fault plane of its other
// chirp access. Whoever builds it closes it, after the worker.
func MergePool(chirpAddr string, policy retry.Policy, fault *faultinject.Injector) *chirp.Pool {
	return chirp.NewPool(chirp.PoolOptions{Addr: chirpAddr, Size: mergeParallelism, Retry: policy, Fault: fault})
}

// MergeExecutor returns the worker-side executor for merge tasks: it fetches
// the listed inputs from the chirp storage element, concatenates them, and
// writes the merged file back. Merge tasks run like analysis tasks (paper:
// "Merge tasks run in the same way as analysis tasks"), so they are subject
// to the same eviction and retry machinery.
//
// The executor is idempotent under whole-task re-dispatch: a replay that
// finds an input missing checks for the merged output — when present,
// the previous attempt completed before its result was lost, and the
// replay reports success instead of failing the workflow. Input
// cleanup likewise tolerates already-removed files.
//
// Data flow: the inputs are fetched in parallel over pool, a MergePool,
// into sandbox spool files (never all in memory at once), then the merged
// file streams back as one putfile whose payload is the concatenation of
// the spools. The pool is worker-scope: a task dials only what no earlier
// one left parked, and each call re-tags the connection it borrows with
// its own task's trace context.
func MergeExecutor(pool *chirp.Pool) wq.Executor {
	return func(ctx *wq.ExecContext) error {
		do := func(fn func(*chirp.Client) error) error {
			return pool.DoTraced(ctx.Tracer, ctx.Trace, fn)
		}
		var args mergeArgs
		if err := json.Unmarshal(ctx.Task.Args, &args); err != nil {
			return fmt.Errorf("merge task arguments: %w", err)
		}
		inputs, out := args.Inputs, args.Output
		if len(inputs) == 0 || inputs[0] == "" || out == "" {
			return fmt.Errorf("merge task needs inputs and output")
		}
		// Merge tasks declare no input or output files — everything moves
		// over chirp — so the worker never created the sandbox the spool
		// files below need.
		if err := ctx.EnsureSandbox(); err != nil {
			return fmt.Errorf("merge sandbox: %w", err)
		}
		spools := make([]string, len(inputs))
		errs := make([]error, len(inputs))
		var wg sync.WaitGroup
		for i := range inputs {
			spools[i] = filepath.Join(ctx.Sandbox, fmt.Sprintf("merge-in-%d", i))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// The pool's Size caps how many fetches run at once.
				_, errs[i] = pool.FetchToTraced(ctx.Tracer, ctx.Trace, inputs[i], spools[i])
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err == nil {
				continue
			}
			if errors.Is(err, wire.ErrNotExist) {
				// A previous attempt of this task may have already
				// merged and removed the inputs.
				if derr := do(func(c *chirp.Client) error {
					_, serr := c.Stat(out)
					return serr
				}); derr == nil {
					return nil
				}
			}
			return fmt.Errorf("fetching merge input %s: %w", inputs[i], err)
		}

		// One streamed putfile of the concatenated spools; each retry
		// reopens them, so the closure stays idempotent.
		if err := do(func(c *chirp.Client) error {
			var total int64
			readers := make([]io.Reader, 0, len(spools))
			closers := make([]io.Closer, 0, len(spools))
			defer func() {
				for _, cl := range closers {
					cl.Close()
				}
			}()
			for _, sp := range spools {
				f, err := os.Open(sp)
				if err != nil {
					return retry.Permanent(fmt.Errorf("opening spool: %w", err))
				}
				closers = append(closers, f)
				st, err := f.Stat()
				if err != nil {
					return retry.Permanent(fmt.Errorf("stat spool: %w", err))
				}
				total += st.Size()
				readers = append(readers, f)
			}
			return c.PutFileFrom(out, io.MultiReader(readers...), total)
		}); err != nil {
			return fmt.Errorf("writing merged output: %w", err)
		}
		// Clean up the small inputs; the merged file replaces them. A
		// missing input was removed by an earlier attempt — not an error.
		for _, in := range inputs {
			err := do(func(c *chirp.Client) error { return c.Unlink(in) })
			if err != nil && !errors.Is(err, wire.ErrNotExist) {
				return fmt.Errorf("removing merged input %s: %w", in, err)
			}
		}
		return nil
	}
}

// mergeParallelism bounds the chirp connections of a worker process's
// merge tasks, all of them together: enough to hide round-trip latency
// on many small inputs, and no more, because the storage element gives a
// connection one of its service slots for as long as it stays open and
// the pool keeps these open between tasks.
const mergeParallelism = 4

// groupOutputsBySize forms merge groups whose summed size approaches
// targetBytes (paper: "group the finished tasks by output size to form merge
// tasks, yielding an output file size close to a user-specified value").
// Groups of a single file are only produced when requireFull is false (the
// end-of-run flush).
func groupOutputsBySize(outputs []outputFile, targetBytes int64, requireFull bool) (groups [][]outputFile, rest []outputFile) {
	sorted := append([]outputFile(nil), outputs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	var cur []outputFile
	var curBytes int64
	for _, o := range sorted {
		cur = append(cur, o)
		curBytes += o.Bytes
		if curBytes >= targetBytes {
			groups = append(groups, cur)
			cur, curBytes = nil, 0
		}
	}
	if len(cur) > 0 {
		if requireFull {
			rest = cur
		} else {
			groups = append(groups, cur)
		}
	}
	return groups, rest
}

// mergeArgs is what a merge task tells MergeExecutor: the chirp paths
// it concatenates, in order, and the one it writes.
type mergeArgs struct {
	Inputs []string `json:"inputs"`
	Output string   `json:"output"`
}

// buildMergeTask constructs the wq task for one merge group and returns
// the path of the merged file it writes.
func buildMergeTask(cfg *Config, group []outputFile, seq int) (*wq.Task, string, error) {
	args := mergeArgs{
		Inputs: make([]string, len(group)),
		Output: fmt.Sprintf("%s/%s_merged_%d.root", cfg.OutputDir, cfg.Name, seq),
	}
	for i, o := range group {
		args.Inputs[i] = o.Path
	}
	raw, err := json.Marshal(&args)
	if err != nil {
		return nil, "", err
	}
	return &wq.Task{Func: mergeFunc, Args: raw, Tag: "merge"}, args.Output, nil
}

// hadoopMerge performs merging entirely within the storage cluster via
// MapReduce (paper §4.4, "Merging via Hadoop"): the map phase groups small
// files by target merged name, the reduce phase concatenates each group and
// writes the large file back into the cluster. No data flows through Chirp.
func hadoopMerge(cfg *Config, cluster *hdfs.Cluster, outputs []outputFile) (merged int, err error) {
	if len(outputs) == 0 {
		return 0, nil
	}
	groups, rest := groupOutputsBySize(outputs, cfg.MergeTargetBytes, false)
	groups = append(groups, restAsGroups(rest)...)
	// Precomputed path → merged-file key, consulted by the mappers.
	groupOf := make(map[string]string)
	var inputs []string
	for gi, g := range groups {
		key := fmt.Sprintf("%s_hmerged_%d.root", cfg.Name, gi)
		for _, o := range g {
			groupOf[o.Path] = key
			inputs = append(inputs, o.Path)
		}
	}
	// As in the paper: the map phase only groups file names by target merged
	// file; each reducer pulls its group's small files from the cluster,
	// concatenates them locally, and writes the large file back.
	res, err := cluster.Run(hdfs.Job{
		Name:   cfg.Name + "-merge",
		Inputs: inputs,
		Map: func(path string, content []byte, emit func(hdfs.KV)) error {
			key, ok := groupOf[path]
			if !ok {
				return fmt.Errorf("no merge group for %s", path)
			}
			emit(hdfs.KV{Key: key, Value: []byte(path)})
			return nil
		},
		Reduce: func(key string, values [][]byte, emit func(hdfs.KV)) error {
			paths := make([]string, len(values))
			for i, v := range values {
				paths[i] = string(v)
			}
			sort.Strings(paths) // deterministic merge order
			var data []byte
			for _, p := range paths {
				content, err := cluster.ReadFile(p)
				if err != nil {
					return fmt.Errorf("reducer fetching %s: %w", p, err)
				}
				data = append(data, content...)
			}
			if err := cluster.WriteFile(cfg.OutputDir+"/"+key, data); err != nil {
				return err
			}
			emit(hdfs.KV{Key: key, Value: nil})
			return nil
		},
	})
	if err != nil {
		return 0, err
	}
	merged = len(res.Output)
	// Remove the small inputs.
	for _, in := range inputs {
		if err := cluster.Remove(in); err != nil {
			return merged, err
		}
	}
	return merged, nil
}

func restAsGroups(rest []outputFile) [][]outputFile {
	if len(rest) == 0 {
		return nil
	}
	return [][]outputFile{rest}
}
