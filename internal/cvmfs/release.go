package cvmfs

import (
	"bytes"
	"fmt"

	"lobster/internal/stats"
)

// ReleaseConfig describes a synthetic software release to publish, standing
// in for a CMSSW distribution. The paper reports that a typical HEP analysis
// job touches about 1.5 GB of release files per cache; tests and small-scale
// runs use a scaled-down working set with the same file-count/size shape.
type ReleaseConfig struct {
	Version    string // e.g. "CMSSW_7_4_0"
	Libraries  int    // shared-library files (the bulk of the bytes)
	LibBytes   int64  // mean size of each library
	DataFiles  int    // auxiliary data files (geometry, payload snapshots)
	DataBytes  int64  // mean size of each data file
	Scripts    int    // small setup scripts and configuration fragments
	ScriptSize int64  // mean script size
}

// PublishRelease stages and commits a synthetic release into repo. Content
// bytes are pseudo-random (deterministic for the rng state) so that distinct
// files have distinct hashes. It returns the list of published paths.
func PublishRelease(repo *Repository, cfg ReleaseConfig, rng *stats.Rand) ([]string, error) {
	if cfg.Version == "" {
		return nil, fmt.Errorf("cvmfs: release needs a version")
	}
	tx := repo.Begin()
	var paths []string
	add := func(path string, size int64) error {
		// Fill with a cheap deterministic pattern keyed off the RNG; only the
		// first words of each 64-byte stride need to differ for unique hashes.
		// The buffer's pre-allocation is capped, so a large configured size
		// does not become one upfront make().
		var content bytes.Buffer
		if grow := size; grow > 0 {
			if grow > 64<<10 {
				grow = 64 << 10
			}
			content.Grow(int(grow))
		}
		var block [64]byte // bytes 8..63 stay zero, as make() left them before
		for rem := size; rem > 0; rem -= int64(len(block)) {
			v := rng.Uint64()
			for j := 0; j < 8; j++ {
				block[j] = byte(v >> (8 * j))
			}
			n := int64(len(block))
			if rem < n {
				n = rem
			}
			content.Write(block[:n])
		}
		if err := tx.AddFile(path, content.Bytes()); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	base := "/" + cfg.Version
	for i := 0; i < cfg.Libraries; i++ {
		if err := add(fmt.Sprintf("%s/lib/libcms%04d.so", base, i), cfg.LibBytes); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.DataFiles; i++ {
		if err := add(fmt.Sprintf("%s/data/payload%04d.db", base, i), cfg.DataBytes); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Scripts; i++ {
		if err := add(fmt.Sprintf("%s/bin/setup%04d.sh", base, i), cfg.ScriptSize); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return paths, nil
}

// TestRelease returns a small release config suitable for unit tests and
// examples: ~200 kB across 26 files.
func TestRelease(version string) ReleaseConfig {
	return ReleaseConfig{
		Version:   version,
		Libraries: 10, LibBytes: 16 << 10,
		DataFiles: 6, DataBytes: 4 << 10,
		Scripts: 10, ScriptSize: 512,
	}
}
