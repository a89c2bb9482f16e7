//go:build scale

package scenario_test

import "testing"

// TestReplayOverStreamedEcosystem100k is the acceptance-scale run, kept out of
// tier 1 (it alone was four fifths of `go test ./...`) until ROADMAP item
// 1(b)'s sweep takes it over:
//
//	go test -tags scale -run TestReplayOverStreamedEcosystem ./internal/scenario
func TestReplayOverStreamedEcosystem100k(t *testing.T) {
	replayOverStreamedEcosystem(t, 100_000)
}
