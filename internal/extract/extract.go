// Package extract merges the outputs of the static and dynamic analyses, the
// AV reports and the feed metadata into one per-sample record (Table I of the
// paper), and classifies the recovered identifiers by currency.
//
// This is the step the paper calls "Extraction of Pools and Wallets"
// (§III-C): wallets come either from static strings or from the command lines
// and Stratum traffic captured in the sandbox; pool endpoints from the same
// places; obfuscation from the packer/entropy analysis; first-seen, in-the-wild
// URLs and parents from the feed metadata; positives from the AV report.
package extract

import (
	"sort"
	"strings"

	"cryptomining/internal/model"
	"cryptomining/internal/sandbox"
	"cryptomining/internal/static"
	"cryptomining/internal/stratum"
	"cryptomining/internal/wallet"
)

// Inputs bundles everything known about one sample before extraction.
type Inputs struct {
	Sample   *model.Sample
	Static   *static.Result
	Dynamic  *sandbox.Report
	AVReport *model.AVReport
}

// Extract builds the Table I record for a sample. Any of the analysis inputs
// may be nil; the record simply contains what the available analyses produced.
func Extract(in Inputs) model.Record {
	rec := model.Record{}
	if in.Sample != nil {
		rec.SHA256 = in.Sample.SHA256
		rec.Sources = append(rec.Sources, in.Sample.Sources...)
		rec.FirstSeen = in.Sample.FirstSeen
		rec.ITWURLs = append(rec.ITWURLs, in.Sample.ITWURLs...)
		rec.Parents = append(rec.Parents, in.Sample.Parents...)
		rec.Dropped = append(rec.Dropped, in.Sample.DroppedHashes...)
		rec.DNSRR = append(rec.DNSRR, in.Sample.ContactedDomains...)
	}
	if in.AVReport != nil {
		rec.Positives = in.AVReport.Positives()
	}

	type candidate struct {
		id       string
		currency model.Currency
		// weight prefers identifiers recovered from authoritative places
		// (Stratum traffic > command line > static strings).
		weight int
	}
	var ids []candidate
	addID := func(id string, weight int) {
		id = strings.TrimSpace(id)
		if id == "" {
			return
		}
		c := wallet.Classify(id)
		if c == model.CurrencyUnknown && len(id) < 16 {
			// Short opaque identifiers (user names) are kept only when seen
			// in Stratum logins, where they are authoritative.
			if weight < 3 {
				return
			}
		}
		ids = append(ids, candidate{id: id, currency: c, weight: weight})
	}

	var endpoints []static.Endpoint

	// Static analysis contributions.
	if in.Static != nil {
		rec.SHA256 = pickNonEmpty(rec.SHA256, in.Static.SHA256)
		rec.Format = in.Static.Format
		rec.Entropy = in.Static.Entropy
		rec.Packer = in.Static.Packer
		rec.Obfuscated = in.Static.Obfuscated
		for _, c := range in.Static.Identifiers {
			addID(c.ID, 1)
		}
		endpoints = append(endpoints, in.Static.PoolEndpoints...)
		rec.ITWURLs = append(rec.ITWURLs, in.Static.URLs...)
		if in.Static.StringCount > 0 || len(in.Static.YARAMatches) > 0 {
			rec.Resources = append(rec.Resources, model.ResourceBinary)
		}
	}

	// Dynamic analysis contributions.
	if in.Dynamic != nil {
		rec.Resources = append(rec.Resources, model.ResourceSandbox)
		for _, cl := range in.Dynamic.CommandLines() {
			for _, c := range wallet.ExtractCandidates(cl) {
				addID(c.ID, 2)
			}
			endpoints = append(endpoints, static.ExtractEndpoints(cl)...)
			if t := threadsFromCommandLine(cl); t > 0 {
				rec.NThreads = t
			}
		}
		capture := in.Dynamic.NetworkCapture()
		if len(capture) > 0 {
			rec.Resources = append(rec.Resources, model.ResourceNetwork)
			for _, l := range stratum.ParseTraffic(capture) {
				addID(l.Login, 3)
				if l.Pass != "" {
					rec.Pass = l.Pass
				}
				if l.Agent != "" {
					rec.Agent = l.Agent
				}
			}
		}
		for _, conn := range in.Dynamic.Connections {
			if conn.DstHost != "" && conn.DstPort > 0 {
				endpoints = append(endpoints, static.Endpoint{Host: conn.DstHost, Port: conn.DstPort})
			}
			if conn.DstIP != "" {
				rec.DstIP = conn.DstIP
			}
		}
		for _, q := range in.Dynamic.DNS {
			rec.DNSRR = append(rec.DNSRR, q.Name)
			rec.DNSRR = append(rec.DNSRR, q.CNAME...)
		}
		rec.Dropped = append(rec.Dropped, in.Dynamic.DroppedHashes...)
		rec.ITWURLs = append(rec.ITWURLs, in.Dynamic.DownloadedURLs...)
	}

	// Pick the best identifier: highest weight, then longest (full wallets
	// beat truncated fragments).
	sort.SliceStable(ids, func(i, j int) bool {
		if ids[i].weight != ids[j].weight {
			return ids[i].weight > ids[j].weight
		}
		return len(ids[i].id) > len(ids[j].id)
	})
	if len(ids) > 0 {
		rec.User = ids[0].id
		rec.Currency = ids[0].currency
	}

	// Pick the mining endpoint: the first endpoint observed dynamically wins
	// (appended later, so prefer the last occurrence of a dynamic endpoint);
	// otherwise the first static one.
	if len(endpoints) > 0 {
		ep := endpoints[len(endpoints)-1]
		rec.URLPool = ep.String()
		rec.DstPort = ep.Port
	}

	rec.ITWURLs = model.SortStrings(rec.ITWURLs)
	rec.DNSRR = model.SortStrings(rec.DNSRR)
	rec.Dropped = model.SortStrings(rec.Dropped)
	rec.Parents = model.SortStrings(rec.Parents)
	rec.Type = classifyType(&rec)
	return rec
}

// classifyType distinguishes miner binaries (identifier + pool endpoint
// observed) from ancillary binaries.
func classifyType(rec *model.Record) model.SampleType {
	if rec.HasIdentifier() && rec.URLPool != "" {
		return model.TypeMiner
	}
	return model.TypeAncillary
}

// threadsFromCommandLine parses "-t N" or "--threads=N" from a command line.
func threadsFromCommandLine(cl string) int {
	fields := strings.Fields(cl)
	for i, f := range fields {
		switch {
		case f == "-t" && i+1 < len(fields):
			return atoiSafe(fields[i+1])
		case strings.HasPrefix(f, "--threads="):
			return atoiSafe(strings.TrimPrefix(f, "--threads="))
		}
	}
	return 0
}

// maxThreads bounds what atoiSafe reads: the command line is the sample's
// to choose, and more digits than this would overflow int into a count that
// looks real.
const maxThreads = 1 << 16

// atoiSafe parses a decimal thread count; anything else, or a count above
// maxThreads, is 0.
func atoiSafe(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		if n = n*10 + int(c-'0'); n > maxThreads {
			return 0
		}
	}
	return n
}

func pickNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
