package campaign

import (
	"encoding/json"
	"io"
)

// Sink consumes study results as they stream out of Run. Emit is called
// once per point, in point-index order; calls are serialized (never
// concurrent with one another) but may arrive on different worker
// goroutines. Close is called exactly once when the run ends — on
// success, error, and cancellation alike — so sinks can flush partial
// output.
type Sink interface {
	Emit(*Result) error
	Close() error
}

// Collect is the simplest sink: it gathers results into a slice, in
// point-index order. The zero value is ready to use.
type Collect struct {
	Results []*Result
}

// Emit implements Sink.
func (c *Collect) Emit(r *Result) error {
	c.Results = append(c.Results, r)
	return nil
}

// Close implements Sink.
func (c *Collect) Close() error { return nil }

// JSONLWriter streams each result as one JSON object per line (JSON
// Lines), suitable for piping into jq or loading into dataframes while
// the study is still running. The latency digest is not serialized —
// only its Summary flattening (see Result.Samples and Result.Quantile
// for programmatic access). Each line, newline included, reaches the
// writer in one Write call.
type JSONLWriter struct {
	w   io.Writer
	enc *json.Encoder
}

// NewJSONLWriter returns a JSONL sink writing to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: w, enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (j *JSONLWriter) Emit(r *Result) error { return j.enc.Encode(r) }

// Close implements Sink.
func (j *JSONLWriter) Close() error { return nil }
