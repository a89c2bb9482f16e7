// Package feeds models the malware-feed layer of the measurement: the sources
// binaries and metadata are collected from (VirusTotal, Palo Alto Networks,
// Hybrid Analysis, VirusShare, and a crawler over smaller communities), and
// the consolidation step that merges them into one deduplicated corpus
// (§III-A and Appendix C of the paper).
//
// On real data each repository is a remote API; here each is an in-memory
// Repository populated by the ecosystem simulator.
package feeds

import (
	"sort"
	"strings"
	"sync"

	"cryptomining/internal/model"
)

// Feed is a source of malware samples.
type Feed interface {
	// Name identifies the feed.
	Name() model.Source
	// List returns the SHA256 hashes available from this feed.
	List() []string
	// Fetch returns the sample with the given hash.
	Fetch(sha256Hex string) (*model.Sample, bool)
}

// Repository is an in-memory Feed.
type Repository struct {
	name    model.Source
	mu      sync.RWMutex
	samples map[string]*model.Sample
}

// NewRepository creates an empty repository for the given source.
func NewRepository(name model.Source) *Repository {
	return &Repository{name: name, samples: map[string]*model.Sample{}}
}

// Name implements Feed.
func (r *Repository) Name() model.Source { return r.name }

// Add stores a sample (stamping this repository as one of its sources).
func (r *Repository) Add(s *model.Sample) {
	if s == nil || s.SHA256 == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := s.Clone()
	c.Sources = []model.Source{r.name}
	r.samples[strings.ToLower(s.SHA256)] = c
}

// List implements Feed.
func (r *Repository) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.samples))
	for h := range r.samples {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Fetch implements Feed.
func (r *Repository) Fetch(sha256Hex string) (*model.Sample, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.samples[strings.ToLower(sha256Hex)]
	if !ok {
		return nil, false
	}
	return s.Clone(), true
}

// Len returns the number of samples in the repository.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.samples)
}

// Aggregate consolidates multiple feeds into one deduplicated corpus: samples
// observed in several feeds keep the union of their sources, parents, URLs and
// contacted domains, and the earliest first-seen date — the same consolidation
// the paper applies across its four main sources.
func Aggregate(feeds ...Feed) *Corpus {
	c := &Corpus{samples: map[string]*model.Sample{}}
	for _, f := range feeds {
		if f == nil {
			continue
		}
		for _, hash := range f.List() {
			s, ok := f.Fetch(hash)
			if !ok {
				continue
			}
			c.merge(s)
		}
	}
	return c
}

// Corpus is the consolidated, deduplicated sample set.
type Corpus struct {
	mu      sync.RWMutex
	samples map[string]*model.Sample
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{samples: map[string]*model.Sample{}}
}

func (c *Corpus) merge(s *model.Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(s.SHA256)
	existing, ok := c.samples[key]
	if !ok {
		c.samples[key] = s.Clone()
		return
	}
	existing.Sources = mergeSources(existing.Sources, s.Sources)
	existing.ITWURLs = mergeStrings(existing.ITWURLs, s.ITWURLs)
	existing.Parents = mergeStrings(existing.Parents, s.Parents)
	existing.ContactedDomains = mergeStrings(existing.ContactedDomains, s.ContactedDomains)
	existing.DroppedHashes = mergeStrings(existing.DroppedHashes, s.DroppedHashes)
	if existing.FirstSeen.IsZero() || (!s.FirstSeen.IsZero() && s.FirstSeen.Before(existing.FirstSeen)) {
		existing.FirstSeen = s.FirstSeen
	}
	if len(existing.Content) == 0 {
		existing.Content = append([]byte(nil), s.Content...)
	}
}

// Add inserts (or merges) a sample into the corpus directly.
func (c *Corpus) Add(s *model.Sample) {
	if s == nil || s.SHA256 == "" {
		return
	}
	c.merge(s)
}

// Get returns the sample with the given hash.
func (c *Corpus) Get(sha256Hex string) (*model.Sample, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.samples[strings.ToLower(sha256Hex)]
	if !ok {
		return nil, false
	}
	return s, true
}

// Hashes returns every sample hash, sorted.
func (c *Corpus) Hashes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.samples))
	for h := range c.samples {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of distinct samples.
func (c *Corpus) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.samples)
}

// CountBySource returns the number of samples observed in each source
// (a sample in several feeds counts once per feed), reproducing the source
// breakdown of Table III.
func (c *Corpus) CountBySource() map[model.Source]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := map[model.Source]int{}
	for _, s := range c.samples {
		for _, src := range s.Sources {
			out[src]++
		}
	}
	return out
}

func mergeSources(a, b []model.Source) []model.Source {
	seen := map[model.Source]bool{}
	var out []model.Source
	for _, s := range append(append([]model.Source{}, a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mergeStrings(a, b []string) []string {
	return model.SortStrings(append(append([]string{}, a...), b...))
}
