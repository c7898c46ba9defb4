package main

import (
	"time"

	"temco/internal/obs"
	"temco/internal/tensor"
)

func tensorRNG(seed uint64) *tensor.RNG { return tensor.NewRNG(seed) }

func tensors(rows ...[]float32) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(rows))
	for i, r := range rows {
		out[i] = tensor.FromSlice(r, 1, len(r))
	}
	return out
}

type stepSpan struct {
	lane uint64
	kind string
	dur  time.Duration
}

func stepSpans(in ...stepSpan) []obs.Span {
	out := make([]obs.Span, len(in))
	for i, s := range in {
		out[i] = obs.Span{Lane: s.lane, Kind: s.kind, Dur: s.dur}
	}
	return out
}
