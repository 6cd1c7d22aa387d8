// Command chirpd serves a local directory over the chirp protocol — the
// storage-element role in a Lobster deployment.
//
// Usage:
//
//	chirpd -addr 127.0.0.1:9094 -root /data/storage -max-concurrent 16
//	chirpd -metrics 127.0.0.1:9095 ...   # serve /metrics too
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"

	"lobster/internal/chirp"
	"lobster/internal/faultinject"
	"lobster/internal/profiling"
	"lobster/internal/tabulate"
	"lobster/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9094", "listen address")
	root := flag.String("root", "./chirp-export", "directory to export")
	maxConc := flag.Int("max-concurrent", 16, "concurrently served connections")
	metrics := flag.String("metrics", "", "serve telemetry (GET /metrics, Prometheus text) on this address")
	pprofOn := flag.Bool("pprof", false, "with -metrics: also serve /debug/pprof for go tool pprof")
	fplan := flag.String("fault-plan", "", "JSON fault plan: inject deterministic faults into served connections")
	flag.Parse()

	fs, err := chirp.NewLocalFS(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chirpd:", err)
		os.Exit(1)
	}
	srv, err := chirp.NewServer(fs, *addr, *maxConc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chirpd:", err)
		os.Exit(1)
	}
	if *fplan != "" {
		plan, err := faultinject.LoadPlan(*fplan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chirpd:", err)
			os.Exit(1)
		}
		srv.Fault(faultinject.New(plan))
		fmt.Printf("chirpd: fault plan armed: %d rules, seed %d\n", len(plan.Rules), plan.Seed)
	}
	if *metrics != "" {
		reg := telemetry.NewRegistry()
		srv.Instrument(reg)
		lis, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chirpd: metrics listener:", err)
			os.Exit(1)
		}
		mux := reg.Mux()
		if *pprofOn {
			profiling.AttachPprof(mux)
		}
		go func() {
			if err := http.Serve(lis, mux); !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "chirpd: metrics server:", err)
			}
		}()
		fmt.Printf("chirpd: telemetry on http://%s/metrics\n", lis.Addr())
	}
	fmt.Printf("chirpd: exporting %s on %s (max %d concurrent)\n", fs.Root(), srv.Addr(), *maxConc)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	st := srv.Stats()
	fmt.Printf("\nchirpd: shutting down — %d connections, %d requests, %s in, %s out\n",
		st.Connections, st.Requests, tabulate.Bytes(float64(st.BytesIn)), tabulate.Bytes(float64(st.BytesOut)))
	srv.Close()
}
