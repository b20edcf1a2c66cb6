package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"equinox"
)

// RunSpec executes a job-spec JSON document and returns its evaluation
// document (the same bytes Evaluation.WriteJSON produces). It is the
// execution half of the job server, exported for fleet workers: a work
// unit's Spec is a canonical single-run JobSpec, and running it through
// RunSpec yields exactly the bytes the coordinator's store and assembler
// expect.
func RunSpec(ctx context.Context, raw []byte, parallelism int) ([]byte, error) {
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("service: bad job spec: %w", err)
	}
	canon, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	cfg, err := canon.evalConfig()
	if err != nil {
		return nil, err
	}
	cfg.Parallelism = parallelism
	ev, err := equinox.RunEvaluationContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ev.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
