package main

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"mfsynth/internal/core"
)

// runScreen synthesizes every random-pool key once and writes the keys
// whose synthesis fails or degrades, in the format of excluded.txt. It
// regenerates that file:
//
//	bash perfbench/run.sh --screen > perfbench/excluded.txt
//
// A key whose result the program reports as nominal but which fails the
// audit (checkResult) is a wrong result, not a degradation: it is never
// excluded, and the screen stops with an error naming it.
func runScreen(w io.Writer) error {
	runtime.GOMAXPROCS(1)
	keys := poolKeys()
	if _, err := fmt.Fprintf(w, "# %d random-pool keys screened; these fail or degrade\n", len(keys)); err != nil {
		return err
	}
	for _, k := range keys {
		in := randomInstance(k)
		res, err := core.SynthesizeCtx(context.Background(), in.assay, in.opts)
		if err == nil && !res.Degraded() {
			if probs := checkResult(in, res); len(probs) > 0 {
				return fmt.Errorf("key %s %d %d: nominal result fails the audit: %v", k.backends, k.mix, k.seed, probs)
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d %d\n", k.backends, k.mix, k.seed); err != nil {
			return err
		}
	}
	return nil
}
