// Package xrootd implements a data federation modelled on the XrootD / AAA
// ("Any Data, Anytime, Anywhere") infrastructure the paper uses for WAN data
// access: a redirector resolves logical file names (LFNs) to the data
// servers holding replicas, and clients stream file content — whole files or
// byte ranges — from any replica, failing over between them.
//
// A Dashboard aggregates per-consumer transfer volumes, standing in for the
// global CMS dashboard from which the paper's Figure 9 is drawn.
package xrootd

import (
	"fmt"
	"sort"
	"sync"
)

// Replica identifies one copy of a file at a site.
type Replica struct {
	Site string // e.g. "T2_US_Nebraska"
	Addr string // host:port of the data server
}

// Redirector maps LFNs to replicas. It is safe for concurrent use.
// (The real system is itself a distributed hierarchy; a single in-process
// registry preserves the lookup semantics Lobster depends on.)
type Redirector struct {
	mu       sync.RWMutex
	replicas map[string][]Replica
	lookups  int64
}

// NewRedirector returns an empty redirector.
func NewRedirector() *Redirector {
	return &Redirector{replicas: make(map[string][]Replica)}
}

// Register announces that the data server at addr (site) holds lfn.
func (r *Redirector) Register(lfn string, rep Replica) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.replicas[lfn] {
		if existing == rep {
			return
		}
	}
	r.replicas[lfn] = append(r.replicas[lfn], rep)
}

// Locate returns the replicas of lfn.
func (r *Redirector) Locate(lfn string) ([]Replica, error) {
	r.mu.Lock()
	r.lookups++
	reps := r.replicas[lfn]
	r.mu.Unlock()
	if len(reps) == 0 {
		return nil, fmt.Errorf("xrootd: no replica of %s", lfn)
	}
	return append([]Replica(nil), reps...), nil
}

// Lookups returns the number of Locate calls served.
func (r *Redirector) Lookups() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lookups
}

// Dashboard aggregates transfer volume by consumer, as the CMS global
// dashboard does; Figure 9 is its top-N listing over a time window.
type Dashboard struct {
	mu      sync.Mutex
	volumes map[string]int64
}

// NewDashboard returns an empty dashboard.
func NewDashboard() *Dashboard { return &Dashboard{volumes: make(map[string]int64)} }

// Record adds bytes transferred on behalf of consumer.
func (d *Dashboard) Record(consumer string, bytes int64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.volumes[consumer] += bytes
}

// Volume returns the total bytes recorded for consumer.
func (d *Dashboard) Volume(consumer string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.volumes[consumer]
}

// ConsumerVolume is one dashboard row.
type ConsumerVolume struct {
	Consumer string
	Bytes    int64
}

// Top returns the n largest consumers in descending order of volume.
func (d *Dashboard) Top(n int) []ConsumerVolume {
	d.mu.Lock()
	defer d.mu.Unlock()
	all := make([]ConsumerVolume, 0, len(d.volumes))
	for c, b := range d.volumes {
		all = append(all, ConsumerVolume{Consumer: c, Bytes: b})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bytes != all[j].Bytes {
			return all[i].Bytes > all[j].Bytes
		}
		return all[i].Consumer < all[j].Consumer
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}
