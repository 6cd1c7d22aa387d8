// Package dbs implements a Dataset Bookkeeping Service modelled after the
// CMS DBS: the metadata catalog from which Lobster learns, for a named
// dataset, the list of logical files, the experiment runs they contain, and
// the luminosity sections ("lumis") within each file.
//
// A lumisection is the smallest unit of data a job can be told to process —
// it is what the paper's "tasklet" maps onto for analysis workloads.
package dbs

import (
	"fmt"
	"strings"
	"sync"
)

// Lumi identifies one luminosity section within an experiment run.
type Lumi struct {
	Run  int `json:"run"`
	Lumi int `json:"lumi"`
}

func (l Lumi) String() string { return fmt.Sprintf("%d:%d", l.Run, l.Lumi) }

// File is one logical file in a dataset. The LFN (logical file name) is the
// federation-wide unique identifier resolved to physical replicas by the
// XrootD redirector.
type File struct {
	LFN    string `json:"lfn"`
	Bytes  int64  `json:"bytes"`
	Events int    `json:"events"`
	Lumis  []Lumi `json:"lumis"`
}

// Dataset is a named collection of files, e.g. "/SingleMu/Run2015A/AOD".
type Dataset struct {
	Name  string `json:"name"`
	Files []File `json:"files"`
}

// TotalBytes returns the summed size of all files.
func (d *Dataset) TotalBytes() int64 {
	var n int64
	for _, f := range d.Files {
		n += f.Bytes
	}
	return n
}

// TotalEvents returns the summed event count of all files.
func (d *Dataset) TotalEvents() int {
	n := 0
	for _, f := range d.Files {
		n += f.Events
	}
	return n
}

// Validate checks dataset integrity: non-empty name, unique LFNs, no lumi
// claimed by two files, positive sizes.
func (d *Dataset) Validate() error {
	if !strings.HasPrefix(d.Name, "/") {
		return fmt.Errorf("dbs: dataset name %q must start with '/'", d.Name)
	}
	lfns := make(map[string]bool)
	lumis := make(map[Lumi]string)
	for _, f := range d.Files {
		if f.LFN == "" {
			return fmt.Errorf("dbs: dataset %s has a file with empty LFN", d.Name)
		}
		if lfns[f.LFN] {
			return fmt.Errorf("dbs: duplicate LFN %s in %s", f.LFN, d.Name)
		}
		lfns[f.LFN] = true
		if f.Bytes < 0 {
			return fmt.Errorf("dbs: file %s has negative size %d", f.LFN, f.Bytes)
		}
		for _, l := range f.Lumis {
			if prev, dup := lumis[l]; dup {
				return fmt.Errorf("dbs: lumi %v claimed by both %s and %s", l, prev, f.LFN)
			}
			lumis[l] = f.LFN
		}
	}
	return nil
}

// Service is an in-memory DBS instance. It is safe for concurrent use.
type Service struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
}

// NewService returns an empty DBS.
func NewService() *Service {
	return &Service{datasets: make(map[string]*Dataset)}
}

// Register adds a dataset after validating it. Re-registering a name is an
// error: datasets are immutable once published.
func (s *Service) Register(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[d.Name]; ok {
		return fmt.Errorf("dbs: dataset %s already registered", d.Name)
	}
	s.datasets[d.Name] = d
	return nil
}

// Dataset returns the dataset with the given name.
func (s *Service) Dataset(name string) (*Dataset, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("dbs: unknown dataset %s", name)
	}
	return d, nil
}

// LumiMask selects subsets of lumis, as physicists use to restrict to
// certified good data. An empty mask selects everything.
type LumiMask struct {
	// Ranges maps run → inclusive [lo,hi] lumi ranges.
	Ranges map[int][][2]int
}

// Contains reports whether the mask selects l.
func (m *LumiMask) Contains(l Lumi) bool {
	if m == nil || len(m.Ranges) == 0 {
		return true
	}
	for _, r := range m.Ranges[l.Run] {
		if l.Lumi >= r[0] && l.Lumi <= r[1] {
			return true
		}
	}
	return false
}

// Apply returns the lumis of f selected by the mask, preserving order.
func (m *LumiMask) Apply(f *File) []Lumi {
	if m == nil || len(m.Ranges) == 0 {
		return f.Lumis
	}
	var out []Lumi
	for _, l := range f.Lumis {
		if m.Contains(l) {
			out = append(out, l)
		}
	}
	return out
}
