package extract

import (
	"math/rand"
	"testing"
	"time"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/model"
	"cryptomining/internal/sandbox"
	"cryptomining/internal/spec"
	"cryptomining/internal/static"
	walletpkg "cryptomining/internal/wallet"
)

func gen(seed int64) *walletpkg.Generator {
	return walletpkg.NewGenerator(rand.New(rand.NewSource(seed)))
}

// buildAndAnalyze fabricates a sample with the given behaviour, runs static
// and dynamic analysis, and returns extraction inputs.
func buildAndAnalyze(t *testing.T, b spec.Behavior, obfuscated bool, packer string) Inputs {
	t.Helper()
	builder := binfmt.NewBuilder(model.FormatPE)
	if !obfuscated && b.CommandLine != "" {
		builder.AddString(b.CommandLine)
	}
	if packer != "" {
		builder.WithPacker(packer)
	}
	content := append(builder.Build(), spec.Encode(b, obfuscated)...)
	sha, md5hex := binfmt.Hashes(content)

	zone := dnssim.NewZone()
	zone.AddA("pool.minexmr.com", "94.130.12.30", time.Time{})
	zone.AddCNAME("xt.freebuf.info", "pool.minexmr.com", time.Time{})
	sb := sandbox.New(dnssim.NewResolver(zone))

	analyzer := static.New()
	stat := analyzer.Analyze(content)
	dyn := sb.Run(sha, content)

	sample := &model.Sample{
		SHA256:    sha,
		MD5:       md5hex,
		Content:   content,
		Sources:   []model.Source{model.SourceVirusTotal},
		FirstSeen: model.Date(2017, 3, 15),
		ITWURLs:   []string{"http://github.com/evil/repo/miner.exe"},
		Parents:   []string{"parent-hash-1"},
	}
	report := &model.AVReport{SHA256: sha}
	for i := 0; i < 20; i++ {
		report.Verdicts = append(report.Verdicts, model.AVVerdict{Vendor: "V", Detected: i < 14, Label: "CoinMiner"})
	}
	return Inputs{Sample: sample, Static: &stat, Dynamic: dyn, AVReport: report}
}

func TestExtractCleartextMiner(t *testing.T) {
	w := gen(1).Monero()
	b := spec.Behavior{
		IsMiner: true, PoolHost: "pool.minexmr.com", PoolPort: 4444,
		Wallet: w, Password: "x", Threads: 4, Agent: "XMRig/2.14.1",
		CommandLine: "xmrig.exe -o stratum+tcp://pool.minexmr.com:4444 -u " + w + " -p x -t 4",
	}
	in := buildAndAnalyze(t, b, false, "")
	rec := Extract(in)

	if rec.User != w {
		t.Errorf("User = %q, want wallet", rec.User)
	}
	if rec.Currency != model.CurrencyMonero {
		t.Errorf("Currency = %v", rec.Currency)
	}
	if rec.URLPool != "pool.minexmr.com:4444" {
		t.Errorf("URLPool = %q", rec.URLPool)
	}
	if rec.Type != model.TypeMiner {
		t.Errorf("Type = %v", rec.Type)
	}
	if rec.Positives != 14 {
		t.Errorf("Positives = %d", rec.Positives)
	}
	if rec.NThreads != 4 {
		t.Errorf("NThreads = %d", rec.NThreads)
	}
	if rec.Pass != "x" || rec.Agent != "XMRig/2.14.1" {
		t.Errorf("Pass/Agent = %q/%q", rec.Pass, rec.Agent)
	}
	if rec.DstIP != "94.130.12.30" {
		t.Errorf("DstIP = %q", rec.DstIP)
	}
	if rec.DstPort != 4444 {
		t.Errorf("DstPort = %d", rec.DstPort)
	}
	if !rec.FirstSeen.Equal(model.Date(2017, 3, 15)) {
		t.Errorf("FirstSeen = %v", rec.FirstSeen)
	}
	if len(rec.Parents) != 1 || rec.Parents[0] != "parent-hash-1" {
		t.Errorf("Parents = %v", rec.Parents)
	}
	// All three resource kinds contributed.
	kinds := map[model.AnalysisResource]bool{}
	for _, r := range rec.Resources {
		kinds[r] = true
	}
	if !kinds[model.ResourceBinary] || !kinds[model.ResourceSandbox] || !kinds[model.ResourceNetwork] {
		t.Errorf("Resources = %v", rec.Resources)
	}
	if rec.Obfuscated {
		t.Error("cleartext sample should not be obfuscated")
	}
}

func TestExtractObfuscatedMinerOnlyDynamic(t *testing.T) {
	// Packed sample: static analysis sees nothing, dynamic analysis recovers
	// the wallet from traffic and command line.
	w := gen(2).Monero()
	b := spec.Behavior{
		IsMiner: true, PoolHost: "xt.freebuf.info", PoolPort: 4444,
		Wallet: w, Password: "x",
	}
	in := buildAndAnalyze(t, b, true, "UPX")
	if len(in.Static.Identifiers) != 0 {
		t.Fatalf("static analysis should see no identifiers in a packed sample: %v", in.Static.Identifiers)
	}
	rec := Extract(in)
	if rec.User != w {
		t.Errorf("User = %q, want wallet recovered dynamically", rec.User)
	}
	if rec.Packer != "UPX" || !rec.Obfuscated {
		t.Errorf("Packer/Obfuscated = %q/%v", rec.Packer, rec.Obfuscated)
	}
	if rec.Type != model.TypeMiner {
		t.Errorf("Type = %v", rec.Type)
	}
	// The CNAME alias appears among DNS resolutions.
	foundAlias := false
	for _, d := range rec.DNSRR {
		if d == "xt.freebuf.info" {
			foundAlias = true
		}
	}
	if !foundAlias {
		t.Errorf("DNSRR = %v, want the CNAME alias", rec.DNSRR)
	}
}

func TestExtractAncillaryDropper(t *testing.T) {
	b := spec.Behavior{
		IsMiner:       false,
		DownloadsURLs: []string{"https://github.com/xmrig/xmrig/releases/download/v2.14.1/xmrig.exe"},
		DropsHashes:   []string{"droppedminerhash"},
	}
	in := buildAndAnalyze(t, b, false, "")
	rec := Extract(in)
	if rec.Type != model.TypeAncillary {
		t.Errorf("Type = %v, want Ancillary", rec.Type)
	}
	if rec.HasIdentifier() {
		t.Errorf("dropper should have no identifier, got %q", rec.User)
	}
	found := false
	for _, d := range rec.Dropped {
		if d == "droppedminerhash" {
			found = true
		}
	}
	if !found {
		t.Errorf("Dropped = %v", rec.Dropped)
	}
}

func TestExtractEmailIdentifier(t *testing.T) {
	email := gen(3).Email()
	b := spec.Behavior{
		IsMiner: true, PoolHost: "pool.minergate.com", PoolPort: 45700,
		Wallet: email, Password: "x",
		CommandLine: "minergate-cli -user " + email + " -xmr 2",
	}
	in := buildAndAnalyze(t, b, false, "")
	rec := Extract(in)
	if rec.User != email || rec.Currency != model.CurrencyEmail {
		t.Errorf("User/Currency = %q/%v", rec.User, rec.Currency)
	}
}

func TestExtractPrefersStratumLoginOverStaticNoise(t *testing.T) {
	// The binary contains a decoy wallet in static strings but mines to a
	// different wallet at runtime; the runtime identifier must win.
	g := gen(4)
	decoy := g.Monero()
	real := g.Monero()
	b := spec.Behavior{
		IsMiner: true, PoolHost: "pool.minexmr.com", PoolPort: 4444,
		Wallet: real, Password: "x",
		CommandLine: "miner.exe -o stratum+tcp://pool.minexmr.com:4444 -u " + real,
	}
	builder := binfmt.NewBuilder(model.FormatPE).
		AddString("donate to " + decoy).
		AddString(b.CommandLine)
	content := append(builder.Build(), spec.Encode(b, false)...)
	sha, _ := binfmt.Hashes(content)

	analyzer := static.New()
	stat := analyzer.Analyze(content)
	sb := sandbox.New(nil)
	dyn := sb.Run(sha, content)
	rec := Extract(Inputs{Static: &stat, Dynamic: dyn})
	if rec.User != real {
		t.Errorf("User = %q, want the runtime wallet %q", model.ShortHash(rec.User), model.ShortHash(real))
	}
}

func TestExtractNilInputs(t *testing.T) {
	rec := Extract(Inputs{})
	if rec.HasIdentifier() || rec.Type != model.TypeAncillary {
		t.Errorf("empty inputs record = %+v", rec)
	}
}

func TestThreadsFromCommandLine(t *testing.T) {
	cases := map[string]int{
		"xmrig -t 8 -u w":           8,
		"xmrig --threads=12":        12,
		"xmrig --threads=abc":       0,
		"xmrig -t":                  0,
		"xmrig -u wallet -p x":      0,
		"miner --threads=4 --other": 4,
		"xmrig -t 65536":            65536,
		"xmrig -t 65537":            0,
		// In a 64-bit int 2^64+8 wraps to 8 and twenty nines to
		// 7766279631452241919.
		"xmrig -t 18446744073709551624":        0,
		"xmrig --threads=99999999999999999999": 0,
	}
	for cl, want := range cases {
		if got := threadsFromCommandLine(cl); got != want {
			t.Errorf("threadsFromCommandLine(%q) = %d, want %d", cl, got, want)
		}
	}
}

func TestClassifyTypeRequiresBothIdentifierAndPool(t *testing.T) {
	rec := model.Record{User: "4W"}
	if classifyType(&rec) != model.TypeAncillary {
		t.Error("identifier without pool should be ancillary")
	}
	rec.URLPool = "pool.minexmr.com:4444"
	if classifyType(&rec) != model.TypeMiner {
		t.Error("identifier with pool should be miner")
	}
}

func BenchmarkExtract(b *testing.B) {
	w := gen(6).Monero()
	behavior := spec.Behavior{
		IsMiner: true, PoolHost: "pool.minexmr.com", PoolPort: 4444, Wallet: w,
		CommandLine: "xmrig.exe -o stratum+tcp://pool.minexmr.com:4444 -u " + w + " -p x -t 2",
	}
	builder := binfmt.NewBuilder(model.FormatPE).AddString(behavior.CommandLine)
	content := append(builder.Build(), spec.Encode(behavior, false)...)
	sha, _ := binfmt.Hashes(content)
	analyzer := static.New()
	stat := analyzer.Analyze(content)
	sb := sandbox.New(nil)
	dyn := sb.Run(sha, content)
	in := Inputs{Static: &stat, Dynamic: dyn}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(in)
	}
}
