// Command wq-worker joins a standalone Work Queue worker to a master. It
// registers the standard Lobster executors (analysis, simulation, merge)
// configured from flags, matching how the paper's worker pilots are
// started in bulk by a batch system.
//
// Usage:
//
//	wq-worker -master 127.0.0.1:9123 -cores 8 \
//	    -proxy http://squid.example:3128 -chirp 127.0.0.1:9094
//
// With -lifetime the worker evicts itself after the given duration, which
// is handy for demonstrating non-dedicated behaviour.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"lobster/internal/core"
	"lobster/internal/hepsim"
	"lobster/internal/parrot"
	"lobster/internal/retry"
	"lobster/internal/wq"
)

// options holds the command's flags.
type options struct {
	master, name, dir                         string
	cores                                     int
	proxyURL, repo, release, chirpSE, condTag string
	lifetime                                  time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.master, "master", "127.0.0.1:9123", "master address")
	flag.StringVar(&o.name, "name", "", "worker name (default: wq-worker-<pid>)")
	flag.IntVar(&o.cores, "cores", 8, "task slots")
	flag.StringVar(&o.dir, "dir", "", "scratch directory (default: temp)")
	flag.StringVar(&o.proxyURL, "proxy", "", "squid/CVMFS base URL (enables software delivery)")
	flag.StringVar(&o.repo, "repo", "cms.cern.ch", "CVMFS repository name")
	flag.StringVar(&o.release, "release", "/CMSSW_7_4_0", "software release path")
	flag.StringVar(&o.chirpSE, "chirp", "", "chirp storage element address")
	flag.StringVar(&o.condTag, "conditions", "", "frontier conditions tag")
	flag.DurationVar(&o.lifetime, "lifetime", 0, "self-evict after this duration (0 = never)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "wq-worker:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.name == "" {
		o.name = fmt.Sprintf("wq-worker-%d", os.Getpid())
	}
	if o.dir == "" {
		d, err := os.MkdirTemp("", "wq-worker-*")
		if err != nil {
			return err
		}
		o.dir = d
	}
	cache, err := parrot.NewCache(o.dir+"/cache", parrot.ModeAlien)
	if err != nil {
		return err
	}
	env := &hepsim.Env{
		ProxyURL:      o.proxyURL,
		Repo:          o.repo,
		ReleasePath:   o.release,
		Cache:         cache,
		ChirpAddr:     o.chirpSE,
		ConditionsTag: o.condTag,
	}
	defer env.Close()
	reg := wq.Registry{
		"analysis":   hepsim.Analysis(env),
		"simulation": hepsim.Simulation(env),
	}
	if o.chirpSE != "" {
		pool := core.MergePool(o.chirpSE, retry.Policy{}, nil)
		defer pool.Close()
		reg["merge"] = core.MergeExecutor(pool)
	}
	w, err := wq.NewWorker(o.master, o.name, o.cores, o.dir, reg)
	if err != nil {
		return err
	}
	fmt.Printf("wq-worker: %s connected to %s with %d cores\n", o.name, o.master, o.cores)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	if o.lifetime > 0 {
		select {
		case <-ch:
		case <-time.After(o.lifetime):
			fmt.Println("wq-worker: lifetime reached, self-evicting")
			w.Evict()
			return nil
		}
	} else {
		<-ch
	}
	fmt.Printf("wq-worker: shutting down after %d tasks (%d failed)\n",
		w.TasksRun(), w.TasksFailed())
	return w.Close()
}
