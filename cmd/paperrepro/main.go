// Command paperrepro regenerates every table and figure of the paper's
// evaluation from a synthetic ecosystem (core.Artefacts) and writes them as
// text files into an output directory (one file per experiment), plus a
// combined report and the ground-truth validation of the aggregation on
// stdout.
//
// Usage:
//
//	paperrepro -out paper-out -seed 42 -scale 0.3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
)

func main() {
	var (
		out   = flag.String("out", "paper-out", "output directory")
		seed  = flag.Int64("seed", 42, "generation seed")
		scale = flag.Float64("scale", 0.3, "ecosystem scale factor")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("create output dir: %v", err)
	}

	cfg := ecosim.DefaultConfig().Scale(*scale)
	cfg.Seed = *seed
	log.Printf("generating ecosystem and running pipeline (seed=%d, scale=%.2f)...", *seed, *scale)
	u := ecosim.Generate(cfg)
	res, err := core.NewFromUniverse(u).Run()
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}

	for _, a := range core.Artefacts(u, res) {
		content := a.Render()
		path := filepath.Join(*out, a.File)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatalf("write %s: %v", path, err)
		}
		fmt.Println(content)
	}

	v := core.Validate(res.Campaigns)
	fmt.Printf("Aggregation validation vs ground truth: %d campaigns, purity %.1f%%, %d merged, %d/%d ground-truth campaigns split\n",
		v.CampaignsWithSamples, v.Purity()*100, v.MergedCampaigns, v.GroundTruthSplit, v.GroundTruthTotal)
	log.Printf("wrote experiment outputs to %s", *out)
}
