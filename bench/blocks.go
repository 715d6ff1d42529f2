package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// splitBlocks splits experiments -format csv output into one block per
// experiment: every table starts with a "# <id>,<title>" line, and the
// tables of one experiment are adjacent, so a block runs from one header
// to the next header naming a different id. Lines before the first
// header belong to no block.
func splitBlocks(csv []byte) map[string][]byte {
	blocks := map[string][]byte{}
	cur := ""
	for len(csv) > 0 {
		line := csv
		if i := bytes.IndexByte(csv, '\n'); i >= 0 {
			line = csv[:i+1]
		}
		csv = csv[len(line):]
		if id, ok := headerID(line); ok {
			cur = id
		}
		if cur != "" {
			blocks[cur] = append(blocks[cur], line...)
		}
	}
	return blocks
}

// headerID returns the id of a "# <id>," table header line.
func headerID(line []byte) (string, bool) {
	if !bytes.HasPrefix(line, []byte("# ")) {
		return "", false
	}
	i := bytes.IndexByte(line, ',')
	if i < 3 {
		return "", false
	}
	return string(line[2:i]), true
}

// digestBlocks returns the SHA-256 of each experiment's block.
func digestBlocks(csv []byte) map[string]string {
	out := map[string]string{}
	for id, b := range splitBlocks(csv) {
		sum := sha256.Sum256(b)
		out[id] = hex.EncodeToString(sum[:])
	}
	return out
}

// badBlocks returns the experiments of ids whose block in csv is missing
// or differs from its golden digest, in the order of ids.
func badBlocks(csv []byte, ids []string, want map[string]string) []string {
	got := digestBlocks(csv)
	var bad []string
	for _, id := range ids {
		if g, ok := got[id]; !ok || g != want[id] {
			bad = append(bad, id)
		}
	}
	return bad
}

// setupGolden is the golden-file key of the set-up probe's output.
const setupGolden = "setup"

//go:embed golden.json
var goldenJSON []byte

// golden maps a workload name (or setupGolden) to its per-experiment
// block digests at the current commit. -update-golden rewrites the file
// in the source tree; the next build embeds it.
type golden map[string]map[string]string

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}
