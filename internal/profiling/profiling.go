// Package profiling wires the standard pprof and execution-trace outputs
// into the CLIs, so kernel hot-path work can always be measured on the real
// binaries rather than only through the micro-benchmarks.
package profiling

import (
	"flag"
	"fmt"
	"net/http"
	pprofhttp "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the three standard profiling destinations. Zero values mean
// the corresponding output is disabled.
type Flags struct {
	CPUProfile string
	MemProfile string
	Trace      string
}

// Register adds -cpuprofile, -memprofile and -trace to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to `file` at exit")
	fs.StringVar(&f.Trace, "trace", "", "write an execution trace to `file`")
}

// Start begins CPU profiling and execution tracing as requested and returns
// a stop function that ends them and writes the heap profile. The stop
// function must run before process exit (defer it in main); it reports the
// first error encountered.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
	}
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			cpuFile = nil
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	if f.Trace != "" {
		traceFile, err = os.Create(f.Trace)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		cleanup()
		if f.MemProfile == "" {
			return nil
		}
		mf, err := os.Create(f.MemProfile)
		if err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		defer mf.Close()
		runtime.GC() // materialise up-to-date allocation stats
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		return nil
	}, nil
}

// AttachPprof registers the standard net/http/pprof handlers on mux under
// /debug/pprof/, for `go tool pprof` against a live daemon. Gated behind
// the -pprof flag in the daemons: the handlers expose goroutine stacks
// and heap contents, which is exactly what a post-mortem wants and
// exactly what an open metrics port shouldn't leak by default. A rule
// that profiles on alert writes its own process's profiles locally
// (internal/health); nothing fetches these.
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprofhttp.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprofhttp.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprofhttp.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprofhttp.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprofhttp.Trace)
}
