package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON holds, per workload, the fingerprint a correct simulator
// produces for defaultSeed. A speed-only change must leave it alone; a
// change that means to alter simulated behaviour updates golden.json
// in its own benchmark-correcting change (the values are printed in
// every run's notes).
//
//go:embed golden.json
var goldenJSON []byte

// checkGolden compares fp with the recorded fingerprint when the run
// uses the default seed. Other seeds have no golden: their repetitions
// are checked against each other and against the Go-side expected
// console only.
func checkGolden(o options, workload string, fp fingerprint) error {
	if o.seed != defaultSeed {
		return nil
	}
	var golden map[string]fingerprint
	if err := json.Unmarshal(o.golden, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[workload]
	if !ok {
		return fmt.Errorf("golden.json has no entry for %s", workload)
	}
	if fp != want {
		return fmt.Errorf("fingerprint %+v differs from golden %+v", fp, want)
	}
	return nil
}
