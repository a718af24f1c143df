package main

import (
	_ "embed"
	"encoding/json"
)

// defaultSeed is the seed the determinism digests are recorded for, the
// same default as the experiments package.
const defaultSeed = 42

// digestsJSON maps each deterministic workload to the digest of its output
// at the default seed: the sim.NewRunReport JSON for the sim workloads and
// every experiment table cell, less the "(this host)" columns, for
// suite-quick. A run whose digest differs counts as failed. Regenerate an
// entry from the "digest" line a run at -seed 42 prints.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigest(workload string) string {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "unreadable digests.json: " + err.Error()
	}
	return m[workload]
}
