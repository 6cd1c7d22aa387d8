package dbs

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleDataset() *Dataset {
	return &Dataset{
		Name: "/Test/Run2015A/AOD",
		Files: []File{
			{LFN: "/Test/f0.root", Bytes: 1000, Events: 10,
				Lumis: []Lumi{{Run: 1, Lumi: 1}, {Run: 1, Lumi: 2}}},
			{LFN: "/Test/f1.root", Bytes: 2000, Events: 20,
				Lumis: []Lumi{{Run: 1, Lumi: 3}, {Run: 2, Lumi: 1}}},
		},
	}
}

func TestDatasetTotals(t *testing.T) {
	d := sampleDataset()
	if d.TotalBytes() != 3000 {
		t.Errorf("bytes = %d", d.TotalBytes())
	}
	if d.TotalEvents() != 30 {
		t.Errorf("events = %d", d.TotalEvents())
	}
}

func TestValidateRejectsBadDatasets(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Dataset)
	}{
		{"no slash prefix", func(d *Dataset) { d.Name = "bad" }},
		{"empty lfn", func(d *Dataset) { d.Files[0].LFN = "" }},
		{"duplicate lfn", func(d *Dataset) { d.Files[1].LFN = d.Files[0].LFN }},
		{"negative size", func(d *Dataset) { d.Files[0].Bytes = -1 }},
		{"duplicate lumi", func(d *Dataset) { d.Files[1].Lumis[0] = d.Files[0].Lumis[0] }},
	}
	for _, c := range cases {
		d := sampleDataset()
		c.mut(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
	if err := sampleDataset().Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
}

func TestServiceRegisterAndQuery(t *testing.T) {
	s := NewService()
	d := sampleDataset()
	if err := s.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(d); err == nil {
		t.Error("double registration accepted")
	}
	got, err := s.Dataset(d.Name)
	if err != nil || got.Name != d.Name {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := s.Dataset("/nope"); err == nil {
		t.Error("unknown dataset lookup succeeded")
	}
}

func TestLumiString(t *testing.T) {
	a := Lumi{Run: 1, Lumi: 5}
	if a.String() != "1:5" {
		t.Errorf("String = %s", a.String())
	}
}

func TestLumiMask(t *testing.T) {
	m := &LumiMask{Ranges: map[int][][2]int{
		1: {{1, 5}, {10, 20}},
	}}
	if !m.Contains(Lumi{1, 3}) || !m.Contains(Lumi{1, 10}) {
		t.Error("mask rejects in-range lumi")
	}
	if m.Contains(Lumi{1, 6}) || m.Contains(Lumi{2, 1}) {
		t.Error("mask accepts out-of-range lumi")
	}
	var nilMask *LumiMask
	if !nilMask.Contains(Lumi{9, 9}) {
		t.Error("nil mask must select everything")
	}
	f := &File{Lumis: []Lumi{{1, 1}, {1, 6}, {1, 15}}}
	sel := m.Apply(f)
	if len(sel) != 2 || sel[0] != (Lumi{1, 1}) || sel[1] != (Lumi{1, 15}) {
		t.Errorf("Apply = %v", sel)
	}
}

func TestGenerateBasic(t *testing.T) {
	d, err := Generate(GenConfig{
		Name: "/Gen/Test/AOD", Files: 10, EventsPerFile: 100,
		LumisPerFile: 4, EventBytes: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Files) != 10 {
		t.Fatalf("files = %d", len(d.Files))
	}
	if n := len(d.Files[9].Lumis); n != 4 {
		t.Errorf("lumis per file = %d", n)
	}
	if d.TotalEvents() != 1000 {
		t.Errorf("events = %d", d.TotalEvents())
	}
	if d.Files[0].Bytes != 100*1000 {
		t.Errorf("file size = %d", d.Files[0].Bytes)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("generated dataset invalid: %v", err)
	}
}

func TestGenerateRunRollover(t *testing.T) {
	d, err := Generate(GenConfig{
		Name: "/Gen/Rollover/AOD", Files: 50, EventsPerFile: 100,
		LumisPerFile: 7, FirstRun: 100, LumisPerRun: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 350 lumis at 10 a run: runs 100 to 134, lumi 10 the last of each.
	first, last := d.Files[0].Lumis[0], d.Files[49].Lumis[6]
	if first != (Lumi{Run: 100, Lumi: 1}) || last != (Lumi{Run: 134, Lumi: 10}) {
		t.Errorf("lumis run %v to %v, want 100:1 to 134:10", first, last)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Name: "/Gen/Det/AOD", Files: 20, EventsPerFile: 50, LumisPerFile: 3}
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := Generate(cfg)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("one config generated two datasets")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	for _, cfg := range []GenConfig{
		{Name: "/x", Files: 0, EventsPerFile: 1, LumisPerFile: 1},
		{Name: "/x", Files: 1, EventsPerFile: 0, LumisPerFile: 1},
		{Name: "/x", Files: 1, EventsPerFile: 1, LumisPerFile: 0},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestGeneratePropertyAllLumisUnique(t *testing.T) {
	check := func(files, lumis uint8) bool {
		nf := int(files%30) + 1
		nl := int(lumis%20) + 1
		d, err := Generate(GenConfig{
			Name: "/P/Q/R", Files: nf, EventsPerFile: 10, LumisPerFile: nl,
		})
		if err != nil {
			return false
		}
		seen := make(map[Lumi]bool)
		for _, f := range d.Files {
			if !strings.HasPrefix(f.LFN, "/P/Q/R/") {
				return false
			}
			for _, l := range f.Lumis {
				if seen[l] {
					return false
				}
				seen[l] = true
			}
		}
		return len(seen) == nf*nl
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
