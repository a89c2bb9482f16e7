package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sort"
	"strconv"
	"strings"

	"cryptomining/internal/core"
	"cryptomining/internal/feeds"
	"cryptomining/internal/stream"
)

// golden.json pins, per workload, the digest of the sealed Results. The seed
// only orders the feed and the Results do not depend on arrival order, so
// one digest covers every seed — and every seed reproducing it is part of
// the check.
//
//go:embed golden.json
var goldenJSON []byte

// goldenDigest looks the workload's digest up; "" when not pinned.
func goldenDigest(workload string) (string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	return g[workload], nil
}

// partition renders campaign membership as sorted lines of sorted member
// hashes, independent of campaign IDs and arrival order.
func partition(members [][]string) []string {
	lines := make([]string, 0, len(members))
	for _, m := range members {
		m = append([]string(nil), m...)
		sort.Strings(m)
		lines = append(lines, strings.Join(m, ","))
	}
	sort.Strings(lines)
	return lines
}

func writeLines(h hash.Hash, section string, lines []string) {
	fmt.Fprintf(h, "%s %d\n", section, len(lines))
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
}

// resultsDigest is the sha256 of the canonical sealed Results: the kept set,
// the campaign membership and the total XMR.
func resultsDigest(res *stream.Results) string {
	h := sha256.New()
	kept := make([]string, 0, len(res.Records))
	for _, r := range res.Records {
		kept = append(kept, strings.ToLower(r.SHA256)+" "+string(r.Type))
	}
	sort.Strings(kept)
	writeLines(h, "kept", kept)
	members := make([][]string, 0, len(res.Campaigns))
	for _, c := range res.Campaigns {
		members = append(members, append(append([]string(nil), c.Samples...), c.Ancillaries...))
	}
	writeLines(h, "campaigns", partition(members))
	fmt.Fprintf(h, "xmr %s\n", strconv.FormatFloat(res.TotalXMR, 'g', -1, 64))
	return hex.EncodeToString(h.Sum(nil))
}

// liveDigest is the sha256 of the canonical live state: what ExportState
// holds that does not depend on wall-clock time or on the order two shards
// delivered concurrent samples in — every outcome's verdict and record, the
// illicit and seen wallet sets, the per-wallet priced totals, the counters —
// plus the campaign membership of the published view. Equal digests before a
// crash and after recovery mean nothing the engine knew was lost or invented.
func liveDigest(st *stream.EngineState, view *stream.View) string {
	h := sha256.New()
	outcomes := make([]string, 0, len(st.Outcomes))
	for _, o := range st.Outcomes {
		rec, _ := json.Marshal(o.Outcome.Record)
		outcomes = append(outcomes, fmt.Sprintf("%s %t %t %t %t %d %s", o.Key,
			o.Outcome.Kept, o.Outcome.IsMalware, o.Outcome.IsMiner, o.Outcome.Whitelisted, o.Outcome.Positives, rec))
	}
	writeLines(h, "outcomes", outcomes)
	writeLines(h, "illicit", st.Illicit)
	writeLines(h, "seen", st.SeenWallets)
	priced := make([]string, 0, len(st.PricedWallets))
	for _, p := range st.PricedWallets {
		priced = append(priced, fmt.Sprintf("%s %s %s", p.Wallet,
			strconv.FormatFloat(p.XMR, 'g', -1, 64), strconv.FormatFloat(p.USD, 'g', -1, 64)))
	}
	writeLines(h, "priced", priced)
	c := st.Counters
	fmt.Fprintf(h, "counters %d %d %d %d %d %d %d %d\n",
		c.Submitted, c.Analyzed, c.Duplicates, c.Kept, c.Miners, c.Flips, c.Campaigns, c.Wallets)
	members := make([][]string, 0, len(view.Details))
	for _, d := range view.Details {
		members = append(members, append(append([]string(nil), d.SampleHashes...), d.AncillaryHashes...))
	}
	writeLines(h, "campaigns", partition(members))
	return hex.EncodeToString(h.Sum(nil))
}

// oracleDigest recomputes the expected Results digest through the batch
// pipeline — core.Pipeline, one shard, no WAL, no prober, no crash — over the
// same generated samples. The batch path prices wallets synchronously and
// never checkpoints, so it shares none of the machinery the rounds exercise
// beyond the analysis itself.
func oracleDigest(ctx context.Context, c corpus) (string, error) {
	cp := feeds.NewCorpus()
	for _, s := range c.all() {
		cp.Add(s)
	}
	res, err := core.New(core.Config{
		Corpus:           cp,
		AV:               c.cfg.AV,
		MalwareThreshold: c.cfg.MalwareThreshold,
		Resolver:         c.cfg.Resolver,
		Zone:             c.cfg.Zone,
		OSINT:            c.cfg.OSINT,
		Pools:            c.cfg.Pools,
		Rates:            c.cfg.Rates,
		Network:          c.cfg.Network,
		QueryTime:        c.cfg.QueryTime,
		GroundTruth:      c.cfg.GroundTruth,
		Shards:           1,
	}).RunContext(ctx)
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	return resultsDigest(res), nil
}
