package main

import (
	"encoding/binary"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"lobster/internal/chirp"
	"lobster/internal/core"
	"lobster/internal/hepsim"
	"lobster/internal/stats"
	"lobster/internal/xrootd"
)

// checksum fingerprints a set of output files independently of how the
// digests are split across files and in which order they were written:
// total bytes plus the wrapping sum of every little-endian 64-bit word.
// Merging concatenates whole outputs, and every output is a whole number
// of 8-byte digests, so merged and unmerged runs agree.
type checksum struct {
	Bytes int64
	Sum   uint64
}

func (c *checksum) add(p []byte) {
	c.Bytes += int64(len(p))
	for ; len(p) >= 8; p = p[8:] {
		c.Sum += binary.LittleEndian.Uint64(p)
	}
	for i, b := range p { // a torn tail still changes the sum
		c.Sum += uint64(b) << (8 * i)
	}
}

func (c *checksum) merge(o checksum) {
	c.Bytes += o.Bytes
	c.Sum += o.Sum
}

// reference computes what one pass of b's workflow must write, from the
// inputs alone and without the workflow's code path: analysis files are
// fetched whole through a plain xrootd client and reduced with the kernel;
// simulation tasks are regenerated from their tasklet seeds and pile-up.
func reference(b *bench, pileup []byte) (checksum, error) {
	k, err := hepsim.NewKernel(b.w.Cfg.EventSize, b.w.Cfg.Work)
	if err != nil {
		return checksum{}, err
	}
	var jobs []func() ([]byte, error)
	if b.w.Cfg.Kind == core.KindAnalysis {
		cl := &xrootd.Client{Redirector: b.st.Redirector}
		for _, f := range b.st.Dataset.Files {
			lfn := f.LFN
			jobs = append(jobs, func() ([]byte, error) { return cl.Fetch(lfn) })
		}
	} else {
		perTask := b.w.Cfg.EventsPerTasklet * b.w.Cfg.TaskletsPerTask
		for first, left := 0, b.w.Cfg.TotalEvents; left > 0; first, left = first+b.w.Cfg.TaskletsPerTask, left-perTask {
			n, seed := min(perTask, left), uint64(first+1) // a task runs on its first tasklet's seed
			jobs = append(jobs, func() ([]byte, error) {
				signal := k.GenerateEvents(n, stats.NewRand(seed))
				return signal, k.OverlayPileup(signal, pileup)
			})
		}
	}
	// The reduction is the whole cost; spread it over both cores.
	var (
		mu    sync.Mutex
		total checksum
		first error
		wg    sync.WaitGroup
		next  = make(chan func() ([]byte, error))
	)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range next {
				var part checksum
				data, err := job()
				if err == nil {
					out, _ := k.ProcessAll(data)
					part.add(out)
				}
				mu.Lock()
				total.merge(part)
				if err != nil && first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, job := range jobs {
		next <- job
	}
	close(next)
	wg.Wait()
	return total, first
}

// attemptFile matches a processing task's output name: tasklet id, attempt.
var attemptFile = regexp.MustCompile(`_t(\d+)_a(\d+)\.root$`)

// readBack fingerprints a workflow's OutputDir over chirp, merged files
// included. When a task was retried, only its highest attempt counts; spool
// files of uploads still in flight (an evicted task finishing) are skipped.
// With remove set the files are unlinked afterwards so passes do not pile up
// on the storage element.
func readBack(se *chirp.Client, dir string, remove bool) (checksum, error) {
	var total checksum
	entries, err := se.List(dir)
	if err != nil {
		return total, err
	}
	// A task output's name carries its tasklet id and attempt; best is the
	// highest attempt seen per id.
	ids, attempts := make([]string, len(entries)), make([]int, len(entries))
	best := map[string]int{}
	for i, e := range entries {
		if m := attemptFile.FindStringSubmatch(e.Name); m != nil {
			ids[i] = m[1]
			attempts[i], _ = strconv.Atoi(m[2])
			best[ids[i]] = max(best[ids[i]], attempts[i])
		}
	}
	for i, e := range entries {
		if e.IsDir || strings.HasPrefix(e.Name, ".") {
			continue
		}
		path := dir + "/" + e.Name
		if ids[i] == "" || attempts[i] == best[ids[i]] {
			data, err := se.GetFile(path)
			if err != nil {
				return total, fmt.Errorf("get %s: %w", path, err)
			}
			total.add(data)
		}
		if remove {
			if err := se.Unlink(path); err != nil {
				return total, fmt.Errorf("unlink %s: %w", path, err)
			}
		}
	}
	return total, nil
}
