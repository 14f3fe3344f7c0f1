package rio

import (
	"context"
	"fmt"
)

// fallbackRuntime is what New returns for every model but InOrder (whose
// caching Engine applies the same options itself): the bare Centralized* or
// Sequential engine plus the two run-level options those engines do not
// implement — Options.Preflight analyzes a program before it runs,
// Options.Timeout bounds the run — and the per-window Stream fallback.
type fallbackRuntime struct {
	Runtime
	opts Options
}

func (f *fallbackRuntime) Run(numData int, prog Program) error {
	return f.RunContext(context.Background(), numData, prog)
}

// RunContext analyzes prog in record mode when Options.Preflight is set (no
// task body executes, so a rejected program has no side effects beyond
// those of the submission closure itself), then runs it under the deadline.
func (f *fallbackRuntime) RunContext(ctx context.Context, numData int, prog Program) error {
	if f.opts.Preflight != 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("rio: run not started: %w", context.Cause(ctx))
		}
		if err := preflightProgram(numData, prog, f.opts, f.NumWorkers()); err != nil {
			return err
		}
	}
	return f.runBounded(ctx, numData, prog)
}

func (f *fallbackRuntime) runBounded(ctx context.Context, numData int, prog Program) error {
	ctx, cancel := deadlineContext(ctx, f.opts.Timeout)
	defer cancel()
	return f.Runtime.RunContext(ctx, numData, prog)
}

// Stream opens a fallback streaming session: windowed submission, one
// window at a time and sticky errors exactly like the native path, with each
// window executing as one run of the underlying engine (full unroll,
// dependency derivation and worker fan-out per window). Its consumers are
// the stream-windows ledger workload's oracle over rio.Sequential and
// TestStreamFallbackOracleStress. Each window is bounded by
// Options.Timeout but bypasses preflight: a window routinely reads data
// written by an earlier window, which single-window analysis would
// misdiagnose as a read of never-written data.
func (f *fallbackRuntime) Stream(numData int, opts StreamOptions) (*Stream, error) {
	return newRuntimeStream(func(numData int, prog Program) error {
		return f.runBounded(context.Background(), numData, prog)
	}, numData, opts)
}
