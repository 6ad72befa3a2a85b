package results

import (
	"fmt"
	"os"
	"time"

	"repro/internal/colf"
)

// The binary format stores timestamps as Unix nanoseconds, which only
// represent times in roughly [1678, 2262); anything outside is refused
// at write time rather than silently wrapped.
var (
	minBinaryTime = time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC)
	maxBinaryTime = time.Date(2261, 12, 31, 23, 59, 59, 0, time.UTC)
)

// toRow converts a validated sample to colf's row form.
func toRow(s Sample) (colf.Row, error) {
	if s.Time.Before(minBinaryTime) || s.Time.After(maxBinaryTime) {
		return colf.Row{}, fmt.Errorf("results: timestamp %v outside the binary format's nanosecond range", s.Time)
	}
	return colf.Row{
		Probe:    s.ProbeID,
		TimeNano: s.Time.UnixNano(),
		Region:   s.Region,
		RTT:      s.RTTms,
		Lost:     s.Lost,
	}, nil
}

// FromRow converts a decoded row back to a sample. Times come back in
// UTC, which is also what the JSONL interchange encoding round-trips
// through RFC 3339.
func FromRow(r colf.Row) Sample {
	return Sample{
		ProbeID: r.Probe,
		Region:  r.Region,
		Time:    time.Unix(0, r.TimeNano).UTC(),
		RTTms:   r.RTT,
		Lost:    r.Lost,
	}
}

// Sink appends samples to a store's samples file. It is the write half
// of a Store: engines stream samples in, Commit durably flushes at
// checkpoint time, and Close finalizes the file by appending the block
// index.
type Sink struct {
	f       *os.File
	base    int64 // samples-file offset where this sink started
	cw      *colf.Writer
	metrics *Metrics
	counted uint64 // bytes already credited to metrics
	closed  bool
}

// newSink wraps an open samples file positioned at base.
func newSink(f *os.File, base int64, existing []colf.BlockInfo) *Sink {
	return &Sink{f: f, base: base, cw: colf.NewWriterAt(f, base, existing)}
}

// Instrument attaches throughput instruments. Call it before the first
// Write; samples already written are not back-counted.
func (s *Sink) Instrument(m *Metrics) {
	if s != nil {
		s.metrics = m
	}
}

// Write validates and appends one sample.
func (s *Sink) Write(smp Sample) error {
	if err := smp.Validate(); err != nil {
		return err
	}
	r, err := toRow(smp)
	if err != nil {
		return err
	}
	if err := s.cw.Write(r); err != nil {
		return err
	}
	if s.metrics != nil {
		s.metrics.Samples.Inc()
	}
	return nil
}

// Count returns the number of samples this sink accepted.
func (s *Sink) Count() uint64 { return s.cw.Count() }

// BytesWritten returns the absolute samples-file offset this sink's
// writes reach. After a successful Flush it is the on-disk file size —
// and a block boundary, which is what makes it a valid checkpoint
// offset.
func (s *Sink) BytesWritten() int64 { return s.base + int64(s.cw.BytesWritten()) }

// Flush pushes buffered samples to the file by sealing the open partial
// block, so the flushed prefix is a valid block sequence.
func (s *Sink) Flush() error {
	if err := s.cw.Flush(); err != nil {
		return err
	}
	s.credit()
	return nil
}

// credit adds newly flushed bytes to the byte counter: blocks only
// materialize bytes when they seal.
func (s *Sink) credit() {
	if s.metrics == nil {
		return
	}
	if b := s.cw.BytesWritten(); b > s.counted {
		s.metrics.Bytes.Add(b - s.counted)
		s.counted = b
	}
}

// Commit makes everything written so far durable (flush + fsync) and
// returns the resulting samples-file offset — always a valid resume
// point. Engines call it before persisting a checkpoint, so a
// checkpoint never references bytes the file does not durably hold.
func (s *Sink) Commit() (int64, error) {
	if err := s.Flush(); err != nil {
		return 0, err
	}
	if err := s.f.Sync(); err != nil {
		return 0, err
	}
	return s.BytesWritten(), nil
}

// Close flushes, appends the block index, syncs and closes the file.
// Close is idempotent.
func (s *Sink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.cw.Finish()
	if err == nil {
		s.credit()
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
