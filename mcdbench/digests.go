package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"

	"mcddvfs/internal/experiment"
)

// Digests of the outputs at the default workload seed (harness seed 1),
// recorded from the unchanged program. A change that alters any
// simulated result or rendered byte at that seed fails these checks;
// such a change must say so and record new digests here.
var digests = map[string]string{
	"chip-capped":  "853e8ec09650423de666f80e5254c1fae6bdc261a6877bea3da9c98b922d67b1",
	"cold-matrix":  "052e90e909c67b1e6a290d6fa67163ea60c73f880b2d2c426efc6c051c6326fb",
	"serve-cold-0": "3f421d6f2e49bbc81b4eef47f83d6eef3ab0ccd0cbca117070ff51a9ce749a7d",
	"serve-cold-1": "04cd13f6bb00be61230f922689f3996a38ea194b9b68c6992f4d61d392e1dbaa",
	"serve-cold-2": "723f3de493871e55e27ef25fccc37bc8cca50a5b150770327f00227e6ff59b71",
	"serve-cold-3": "bef11d5b979b57df094d21b8935da02228f69ec8d2794bb786c62c229c342f82",
}

// committedDigest returns the committed digest for key when the run
// uses the default seed, and "" otherwise.
func committedDigest(key string, c config) string {
	if c.seed != defaultSeed {
		return ""
	}
	return digests[key]
}

// digestsMain prints the digests of the current program's outputs at
// the default seed, in the form the digests map above takes, for
// recording after a deliberate change of outputs.
func digestsMain() int {
	c := config{seed: defaultSeed}
	experiment.SetCaching(false)
	m, err := experiment.RunMatrix(coldOptions(c, ""))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		return 1
	}
	out := map[string]string{"cold-matrix": matrixDigest(m, false)}
	r, err := experiment.RunChip(nil, experiment.SchemeAdaptive, chipOptions(c))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		return 1
	}
	out["chip-capped"] = chipDigest(r, false)
	for i := int64(0); i < coldChecked; i++ {
		req := request(c, artifact{id: coldArtifact}, i)
		opt := experiment.Options{Instructions: req.Instructions, Seed: req.Seed, Benchmarks: req.Benchmarks}
		body, _, err := experiment.RenderArtifactContext(context.Background(), req.Artifact, experiment.ArtifactFormat(req.Format), opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcdbench:", err)
			return 1
		}
		sum := sha256.Sum256(body)
		out[fmt.Sprintf("serve-cold-%d", i)] = hex.EncodeToString(sum[:])
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("\t%q: %q,\n", k, out[k])
	}
	return 0
}
