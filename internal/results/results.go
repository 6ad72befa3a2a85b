// Package results is the dataset layer: the campaign's measurement samples
// as an append-only binary columnar store (internal/colf) with streaming
// readers, a JSONL interchange codec for import and export, plus an
// in-memory campaign held as the same colf blocks in a byte buffer.
// The paper's dataset is 3.2M datapoints over nine months (§4.1);
// everything here streams so the analysis never needs the full dataset
// in memory.
package results

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/colf"
)

// Sample is one ping measurement: probe -> region at a point in time.
type Sample struct {
	ProbeID int       `json:"probe"`
	Region  string    `json:"region"` // "provider/id" address
	Time    time.Time `json:"t"`
	RTTms   float64   `json:"rtt_ms"`         // meaningful only when !Lost
	Lost    bool      `json:"lost,omitempty"` // request unanswered
}

// Validate rejects structurally broken samples.
func (s Sample) Validate() error {
	if s.ProbeID <= 0 {
		return fmt.Errorf("results: bad probe id %d", s.ProbeID)
	}
	if s.Region == "" {
		return errors.New("results: empty region")
	}
	if s.Time.IsZero() {
		return errors.New("results: zero timestamp")
	}
	if !s.Lost && s.RTTms <= 0 {
		return fmt.Errorf("results: non-positive RTT %v on delivered sample", s.RTTms)
	}
	return nil
}

// Memory holds a campaign's samples in memory, for campaigns small
// enough to analyse without a store: the same colf blocks a Sink writes
// to samples.bin, in a byte buffer instead of a file.
type Memory struct {
	buf bytes.Buffer
	cw  *colf.Writer
}

// Add validates and appends one sample. A timestamp the binary format
// cannot hold is refused here, as a Sink refuses it.
func (m *Memory) Add(s Sample) error {
	if m.cw == nil {
		m.cw = colf.NewWriter(&m.buf)
	}
	return writeSample(m.cw, s)
}

// Image seals the open block and returns a reader over the image and
// its blocks, which the store's scanner folds as it folds a file. Adds
// after Image start a new block, as they would after a Sink's Flush.
func (m *Memory) Image() (*colf.Reader, []colf.BlockInfo, error) {
	if m.cw != nil {
		if err := m.cw.Flush(); err != nil {
			return nil, nil, err
		}
	}
	r, err := colf.NewReader(bytes.NewReader(m.buf.Bytes()), int64(m.buf.Len()))
	if err != nil {
		return nil, nil, err
	}
	return r, r.Blocks(), nil
}

// ForEach calls fn for every sample in storage order. It stops at the
// first error and returns it.
func (m *Memory) ForEach(fn func(Sample) error) error {
	r, _, err := m.Image()
	if err != nil {
		return err
	}
	return r.ForEachRow(func(row colf.Row) error { return fn(FromRow(row)) })
}

// Writer streams samples to JSONL, the interchange encoding `dataset
// convert` exports.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   uint64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write validates and appends one sample.
func (w *Writer) Write(s Sample) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := w.enc.Encode(s); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of samples written.
func (w *Writer) Count() uint64 { return w.n }

// Flush drains the buffer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// MaxLineBytes is the longest JSONL line the Reader accepts. The default
// bufio.Scanner token limit is 64 KiB, which real-world JSONL (embedded
// traceroutes, annotation blobs) can exceed; lines past this limit
// surface bufio.ErrTooLong with the offending line number instead of a
// bare scanner error.
const MaxLineBytes = 16 << 20

// Reader streams samples from JSONL, the interchange encoding `dataset
// convert` imports.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader wraps r. Lines up to MaxLineBytes are supported.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	return &Reader{sc: sc}
}

// Next returns the next sample, or io.EOF at the end of the stream.
func (r *Reader) Next() (Sample, error) {
	for r.sc.Scan() {
		r.line++
		raw := r.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var s Sample
		if err := json.Unmarshal(raw, &s); err != nil {
			return Sample{}, fmt.Errorf("results: line %d: %w", r.line, err)
		}
		if err := s.Validate(); err != nil {
			return Sample{}, fmt.Errorf("results: line %d: %w", r.line, err)
		}
		return s, nil
	}
	if err := r.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stops before consuming the oversized line, so
			// the failing line is the one after the last delivered.
			return Sample{}, fmt.Errorf("results: line %d exceeds %d bytes: %w", r.line+1, MaxLineBytes, err)
		}
		return Sample{}, err
	}
	return Sample{}, io.EOF
}

// ForEach calls fn for every sample left in the stream, stopping at the
// first error.
func (r *Reader) ForEach(fn func(Sample) error) error {
	for {
		s, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(s); err != nil {
			return err
		}
	}
}

// Meta describes a stored campaign.
type Meta struct {
	Seed          uint64    `json:"seed"`
	Start         time.Time `json:"start"`
	End           time.Time `json:"end"`
	IntervalHours float64   `json:"interval_hours"`
	Probes        int       `json:"probes"`
	Regions       int       `json:"regions"`
}

// Validate checks campaign metadata.
func (m Meta) Validate() error {
	if m.Start.IsZero() || m.End.IsZero() || !m.End.After(m.Start) {
		return fmt.Errorf("results: invalid campaign window [%v, %v]", m.Start, m.End)
	}
	if m.IntervalHours <= 0 {
		return fmt.Errorf("results: invalid interval %v", m.IntervalHours)
	}
	if m.Probes <= 0 || m.Regions <= 0 {
		return fmt.Errorf("results: invalid census probes=%d regions=%d", m.Probes, m.Regions)
	}
	return nil
}

const (
	metaFile     = "meta.json"
	samplesFile  = "samples.bin"
	snapshotFile = "samples.snap"
	tixFile      = "samples.tix"

	// InterchangeFile is the JSONL samples file Import reads and Export
	// writes next to meta.json. It is not a store: Open refuses a
	// directory that holds only this.
	InterchangeFile = "samples.jsonl"
)

// Format identifies the on-disk encoding of a store's samples file.
// There is one — binary colf — and the type survives only so Create's
// callers keep naming it.
type Format int

// FormatBinary is the colf columnar block encoding (samples.bin).
const FormatBinary Format = 1

// Store is an on-disk campaign dataset: a directory holding meta.json
// plus samples.bin, the binary columnar samples file.
type Store struct {
	dir  string
	meta Meta
}

// Create initializes a dataset directory and returns the store plus a
// sink for its samples. Callers must Close the sink.
func Create(dir string, meta Meta, format Format) (*Store, *Sink, error) {
	if format != FormatBinary {
		return nil, nil, fmt.Errorf("results: unknown dataset format %d", int(format))
	}
	if err := writeMeta(dir, meta); err != nil {
		return nil, nil, err
	}
	// Any analysis snapshot or temporal aggregate index summarized the
	// old samples file. (Stale ones would be rejected by their binding
	// headers anyway; removing them keeps the directory honest.)
	for _, stale := range []string{snapshotFile, tixFile} {
		if err := os.Remove(filepath.Join(dir, stale)); err != nil && !os.IsNotExist(err) {
			return nil, nil, err
		}
	}
	f, err := os.Create(filepath.Join(dir, samplesFile))
	if err != nil {
		return nil, nil, err
	}
	return &Store{dir: dir, meta: meta}, newSink(f, 0, nil), nil
}

// writeMeta validates meta and writes dir/meta.json, creating dir.
func writeMeta(dir string, meta Meta) error {
	if err := meta.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, metaFile), mb, 0o644)
}

// readMeta loads and validates dir/meta.json.
func readMeta(dir string) (Meta, error) {
	mb, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return Meta{}, err
	}
	var meta Meta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return Meta{}, fmt.Errorf("results: corrupt meta: %w", err)
	}
	return meta, meta.Validate()
}

// Open loads an existing dataset directory. A directory without
// samples.bin is not a store; one that holds JSONL interchange data
// instead is told how to import it.
func Open(dir string) (*Store, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, samplesFile)); err != nil {
		if !os.IsNotExist(err) {
			return nil, err
		}
		if _, jerr := os.Stat(filepath.Join(dir, InterchangeFile)); jerr == nil {
			return nil, fmt.Errorf("results: %s holds %s but no %s; import it with `dataset -data %s -out NEWDIR convert`",
				dir, InterchangeFile, samplesFile, dir)
		}
		return nil, fmt.Errorf("results: %s holds no %s", dir, samplesFile)
	}
	return &Store{dir: dir, meta: meta}, nil
}

// Meta returns the campaign metadata.
func (s *Store) Meta() Meta { return s.meta }

// Resume reopens the samples file for appending at the given byte
// offset, truncating whatever follows it (the partial round after the
// last checkpoint). The offset must be a block boundary — which every
// Sink.Commit offset is — and the blocks before it are re-indexed so
// Close can write a complete file index.
func (s *Store) Resume(offset int64) (*Sink, error) {
	f, err := os.OpenFile(s.SamplesPath(), os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if offset < 0 || offset > st.Size() {
		f.Close()
		return nil, fmt.Errorf("results: resume offset %d outside file of %d bytes", offset, st.Size())
	}
	var existing []colf.BlockInfo
	if offset > 0 {
		if existing, err = colf.BlocksTo(f, offset); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return newSink(f, offset, existing), nil
}

// SamplesPath returns the path of the underlying samples file, for
// consumers (like the parallel scanner) that read the dataset by block
// rather than through ForEach.
func (s *Store) SamplesPath() string { return filepath.Join(s.dir, samplesFile) }

// SnapshotPath returns where the dataset's analysis snapshot lives (see
// internal/snap). The file is optional — it may not exist.
func (s *Store) SnapshotPath() string { return filepath.Join(s.dir, snapshotFile) }

// TixPath returns where the dataset's temporal aggregate index lives
// (see internal/tix). The file is optional — it may not exist.
func (s *Store) TixPath() string { return filepath.Join(s.dir, tixFile) }

// ForEach streams every stored sample in storage order.
func (s *Store) ForEach(fn func(Sample) error) error {
	r, closer, err := colf.Open(s.SamplesPath())
	if err != nil {
		return err
	}
	defer closer.Close()
	return r.ForEachRow(func(row colf.Row) error {
		smp := FromRow(row)
		if err := smp.Validate(); err != nil {
			return err
		}
		return fn(smp)
	})
}

// Import builds a store in out from the JSONL interchange directory
// dir (meta.json plus samples.jsonl), preserving sample order. A
// malformed or oversized line fails the import with its line number.
func Import(dir, out string) (*Store, uint64, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(filepath.Join(dir, InterchangeFile))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	store, sink, err := Create(out, meta, FormatBinary)
	if err != nil {
		return nil, 0, err
	}
	if err := NewReader(f).ForEach(sink.Write); err != nil {
		sink.Close()
		return nil, 0, err
	}
	return store, sink.Count(), sink.Close()
}

// Export writes the store to out as a JSONL interchange directory and
// returns the sample count. Import reads it back into the same sample
// stream — and the same samples.bin bytes, unless a checkpoint Commit
// sealed a short block in the original, which an import never does.
func (s *Store) Export(out string) (uint64, error) {
	if err := writeMeta(out, s.meta); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(out, InterchangeFile))
	if err != nil {
		return 0, err
	}
	w := NewWriter(f)
	err = s.ForEach(w.Write)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return w.Count(), err
}
