package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenSeed is the seed of each invocation's pinned run: the workload at
// its tiny sizes, whose digests golden.json holds. The pinned run catches
// a change to the simulator's outputs across commits, which comparing the
// runs of one invocation with each other cannot.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// digests are the hashes a run's output check compares.
type digests struct {
	Report string `json:"report_sha256"`
	Util   string `json:"util_sha256,omitempty"`
}

// checkGolden compares a pinned run's digests with golden.json. After a
// change that is meant to alter the simulator's output, rewrite the file
// with `go test . -run TestGoldenDigests -update`.
func checkGolden(r runResult) error {
	var pinned map[string]digests
	if err := json.Unmarshal(goldenJSON, &pinned); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := pinned[r.Workload]
	if !ok {
		return fmt.Errorf("golden.json has no digests for %s", r.Workload)
	}
	if got := (digests{r.ReportSHA, r.UtilSHA}); got != want {
		return fmt.Errorf("%s at seed %d renders digests %+v, golden.json pins %+v", r.Workload, r.Seed, got, want)
	}
	return nil
}
