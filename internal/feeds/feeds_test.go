package feeds

import (
	"fmt"
	"testing"
	"time"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/model"
)

func mkSample(content string, firstSeen time.Time) *model.Sample {
	sha, md5hex := binfmt.Hashes([]byte(content))
	return &model.Sample{
		SHA256:    sha,
		MD5:       md5hex,
		Content:   []byte(content),
		FirstSeen: firstSeen,
	}
}

func TestRepositoryAddFetchList(t *testing.T) {
	r := NewRepository(model.SourceVirusTotal)
	s := mkSample("sample one", model.Date(2017, 1, 1))
	r.Add(s)
	r.Add(nil)                       // ignored
	r.Add(&model.Sample{SHA256: ""}) // ignored

	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if r.Name() != model.SourceVirusTotal {
		t.Errorf("Name = %v", r.Name())
	}
	got, ok := r.Fetch(s.SHA256)
	if !ok {
		t.Fatal("Fetch failed")
	}
	if len(got.Sources) != 1 || got.Sources[0] != model.SourceVirusTotal {
		t.Errorf("sources = %v", got.Sources)
	}
	// Fetch is case-insensitive on the hash.
	if _, ok := r.Fetch("DEADBEEF"); ok {
		t.Error("unknown hash should not fetch")
	}
	if list := r.List(); len(list) != 1 || list[0] != s.SHA256 {
		t.Errorf("List = %v", list)
	}
	// The stored sample is a copy: mutating the original has no effect.
	s.Content[0] = 'X'
	again, _ := r.Fetch(s.SHA256)
	if again.Content[0] == 'X' {
		t.Error("repository should store a deep copy")
	}
}

func TestAggregateDeduplicatesAcrossFeeds(t *testing.T) {
	shared := mkSample("shared sample", model.Date(2016, 5, 1))
	vtOnly := mkSample("vt exclusive", model.Date(2017, 2, 1))
	paOnly := mkSample("palo alto exclusive", model.Date(2018, 3, 1))

	vt := NewRepository(model.SourceVirusTotal)
	vt.Add(shared)
	vt.Add(vtOnly)

	pa := NewRepository(model.SourcePaloAlto)
	sharedLater := shared.Clone()
	sharedLater.FirstSeen = model.Date(2016, 8, 1) // later than VT's
	sharedLater.ITWURLs = []string{"http://hrtests.ru/payload.exe"}
	pa.Add(sharedLater)
	pa.Add(paOnly)

	corpus := Aggregate(vt, pa, nil)
	if corpus.Len() != 3 {
		t.Fatalf("corpus size = %d, want 3", corpus.Len())
	}
	merged, ok := corpus.Get(shared.SHA256)
	if !ok {
		t.Fatal("shared sample missing")
	}
	if len(merged.Sources) != 2 {
		t.Errorf("merged sources = %v", merged.Sources)
	}
	if !merged.FirstSeen.Equal(model.Date(2016, 5, 1)) {
		t.Errorf("merged first seen = %v, want earliest", merged.FirstSeen)
	}
	if len(merged.ITWURLs) != 1 {
		t.Errorf("merged ITW URLs = %v", merged.ITWURLs)
	}
	bySource := corpus.CountBySource()
	if bySource[model.SourceVirusTotal] != 2 || bySource[model.SourcePaloAlto] != 2 {
		t.Errorf("CountBySource = %v", bySource)
	}
}

func TestCorpusAddAndHashes(t *testing.T) {
	c := NewCorpus()
	s1 := mkSample("one", model.Date(2017, 1, 1))
	s2 := mkSample("two", model.Date(2017, 1, 2))
	c.Add(s1)
	c.Add(s2)
	c.Add(s1) // duplicate merge
	c.Add(nil)
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	hs := c.Hashes()
	if len(hs) != 2 || hs[0] > hs[1] {
		t.Errorf("Hashes = %v", hs)
	}
	if _, ok := c.Get("missing"); ok {
		t.Error("missing hash should not be found")
	}
}

func TestCorpusMergePreservesEarliestAndContent(t *testing.T) {
	c := NewCorpus()
	full := mkSample("payload bytes", model.Date(2015, 6, 1))
	metaOnly := full.Clone()
	metaOnly.Content = nil
	metaOnly.FirstSeen = model.Date(2014, 12, 1)
	metaOnly.Parents = []string{"parenthash"}

	c.Add(metaOnly)
	c.Add(full)
	got, _ := c.Get(full.SHA256)
	if !got.FirstSeen.Equal(model.Date(2014, 12, 1)) {
		t.Errorf("first seen = %v, want earliest", got.FirstSeen)
	}
	if len(got.Content) == 0 {
		t.Error("content should be filled in from the feed that had it")
	}
	if len(got.Parents) != 1 {
		t.Errorf("parents = %v", got.Parents)
	}
}

func BenchmarkAggregate(b *testing.B) {
	vt := NewRepository(model.SourceVirusTotal)
	pa := NewRepository(model.SourcePaloAlto)
	for i := 0; i < 2000; i++ {
		s := mkSample(fmt.Sprintf("sample-%d", i), model.Date(2017, 1, 1))
		vt.Add(s)
		if i%2 == 0 {
			pa.Add(s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Aggregate(vt, pa)
	}
}
