package dbs

import "fmt"

// GenConfig describes a synthetic dataset to generate. It stands in for the
// production CMS data the paper consumed: a typical analysis reads 0.1–1 PB
// selected via this metadata service, with events around 100 kB each.
type GenConfig struct {
	Name          string // dataset name, e.g. "/SingleMu/Sim2015A/AOD"
	Files         int    // number of logical files
	EventsPerFile int    // events per file
	EventBytes    int64  // bytes per event (paper: ~100 kB)
	LumisPerFile  int    // lumisections per file
	FirstRun      int    // starting run number
	LumisPerRun   int    // lumis before the run number advances
}

// Generate builds a synthetic dataset. The result is a function of the
// config alone and always passes Validate.
func Generate(cfg GenConfig) (*Dataset, error) {
	if cfg.Files <= 0 || cfg.EventsPerFile <= 0 || cfg.LumisPerFile <= 0 {
		return nil, fmt.Errorf("dbs: invalid generator config %+v", cfg)
	}
	if cfg.FirstRun <= 0 {
		cfg.FirstRun = 250000
	}
	if cfg.LumisPerRun <= 0 {
		cfg.LumisPerRun = 1000
	}
	if cfg.EventBytes <= 0 {
		cfg.EventBytes = 100 << 10 // 100 kB, per the paper
	}
	d := &Dataset{Name: cfg.Name}
	run := cfg.FirstRun
	lumiInRun := 1
	for i := 0; i < cfg.Files; i++ {
		f := File{
			LFN:    fmt.Sprintf("%s/file%06d.root", cfg.Name, i),
			Events: cfg.EventsPerFile,
			Bytes:  int64(cfg.EventsPerFile) * cfg.EventBytes,
		}
		for j := 0; j < cfg.LumisPerFile; j++ {
			f.Lumis = append(f.Lumis, Lumi{Run: run, Lumi: lumiInRun})
			lumiInRun++
			if lumiInRun > cfg.LumisPerRun {
				run++
				lumiInRun = 1
			}
		}
		d.Files = append(d.Files, f)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dbs: generator produced invalid dataset: %w", err)
	}
	return d, nil
}
