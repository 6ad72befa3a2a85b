package results

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/colf"
)

var t0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

func sample(i int) Sample {
	return Sample{ProbeID: i, Region: "Amazon/eu-north-1", Time: t0.Add(time.Duration(i) * time.Hour), RTTms: float64(10 + i)}
}

func TestSampleValidate(t *testing.T) {
	good := sample(1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid sample rejected: %v", err)
	}
	cases := []Sample{
		{ProbeID: 0, Region: "x", Time: t0, RTTms: 1},
		{ProbeID: 1, Region: "", Time: t0, RTTms: 1},
		{ProbeID: 1, Region: "x", RTTms: 1},
		{ProbeID: 1, Region: "x", Time: t0, RTTms: 0},
		{ProbeID: 1, Region: "x", Time: t0, RTTms: -5},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid sample accepted: %+v", i, s)
		}
	}
	lost := Sample{ProbeID: 1, Region: "x", Time: t0, Lost: true}
	if err := lost.Validate(); err != nil {
		t.Errorf("lost sample rejected: %v", err)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Sample{sample(1), sample(2), {ProbeID: 3, Region: "r", Time: t0, Lost: true}}
	for _, s := range want {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var got []Sample
	if err := r.ForEach(func(s Sample) error { got = append(got, s); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples", len(got))
	}
	for i := range want {
		if got[i].ProbeID != want[i].ProbeID || got[i].RTTms != want[i].RTTms ||
			got[i].Lost != want[i].Lost || !got[i].Time.Equal(want[i].Time) {
			t.Errorf("sample %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Sample{}); err == nil {
		t.Error("invalid sample written")
	}
	if w.Count() != 0 {
		t.Error("count incremented on failure")
	}
}

func TestReaderErrors(t *testing.T) {
	// Corrupt JSON.
	r := NewReader(strings.NewReader("{not json}\n"))
	if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("corrupt line: %v", err)
	}
	// Valid JSON, invalid sample.
	r = NewReader(strings.NewReader(`{"probe":0,"region":"x","t":"2019-09-01T00:00:00Z","rtt_ms":1}` + "\n"))
	if _, err := r.Next(); err == nil {
		t.Error("invalid sample accepted")
	}
	// Blank lines are skipped.
	r = NewReader(strings.NewReader("\n\n" + `{"probe":1,"region":"x","t":"2019-09-01T00:00:00Z","rtt_ms":1}` + "\n\n"))
	if s, err := r.Next(); err != nil || s.ProbeID != 1 {
		t.Errorf("blank-line handling: %+v, %v", s, err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("EOF expected, got %v", err)
	}
}

func TestForEachStopsOnCallbackError(t *testing.T) {
	var m Memory
	for i := 1; i <= 5; i++ {
		if err := m.Add(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := errors.New("stop")
	seen := 0
	err := m.ForEach(func(Sample) error {
		seen++
		if seen == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || seen != 2 {
		t.Errorf("err=%v seen=%d", err, seen)
	}
}

// TestMemoryForEachBlock pins the block view: every sample once, in
// order, in blocks of at most colf.DefaultBlockRows rows (the last one
// short), region codes resolving through the growing dictionary — and a
// timestamp the binary format cannot hold refused, as a sink refuses it.
func TestMemoryForEachBlock(t *testing.T) {
	var m Memory
	regions := []string{"Amazon/eu-north-1", "Google/us-east1", "Vultr/ams"}
	n := 2*colf.DefaultBlockRows + 17
	for i := 1; i <= n; i++ {
		s := sample(i)
		s.Region = regions[i%len(regions)]
		s.Lost = i%11 == 0
		if err := m.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	var want, got []Sample
	if err := m.ForEach(func(s Sample) error { want = append(want, s); return nil }); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	if err := m.ForEachBlock(func(blk *colf.Block) error {
		sizes = append(sizes, blk.Rows())
		for i := range blk.Probe {
			got = append(got, FromRow(colf.Row{
				Probe: blk.Probe[i], TimeNano: blk.TimeNano[i], Region: blk.Dict[blk.RegionID[i]],
				RTT: blk.RTT[i], Lost: blk.Lost[i],
			}))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != colf.DefaultBlockRows || sizes[1] != colf.DefaultBlockRows || sizes[2] != 17 {
		t.Errorf("block sizes = %v", sizes)
	}
	if len(got) != len(want) {
		t.Fatalf("blocks hold %d rows, memory %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Time.Equal(want[i].Time) {
			t.Fatalf("row %d: time %v, want %v", i, got[i].Time, want[i].Time)
		}
		got[i].Time = want[i].Time
		if got[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	sentinel := errors.New("stop")
	calls := 0
	if err := m.ForEachBlock(func(*colf.Block) error { calls++; return sentinel }); !errors.Is(err, sentinel) || calls != 1 {
		t.Errorf("callback error: err=%v after %d calls", err, calls)
	}
	var empty Memory
	if err := empty.ForEachBlock(func(*colf.Block) error { t.Error("empty memory presented a block"); return nil }); err != nil {
		t.Error(err)
	}

	far := sample(1)
	far.Time = time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := m.Add(far); err != nil {
		t.Fatal(err)
	}
	if err := m.ForEachBlock(func(*colf.Block) error { return nil }); err == nil || !strings.Contains(err.Error(), "nanosecond range") {
		t.Errorf("timestamp outside the binary range: err = %v", err)
	}
}

func TestMemory(t *testing.T) {
	var m Memory
	if err := m.Add(Sample{}); err == nil {
		t.Error("invalid sample accepted")
	}
	if err := m.Add(sample(1)); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMetaValidate(t *testing.T) {
	good := Meta{Seed: 1, Start: t0, End: t0.Add(time.Hour), IntervalHours: 3, Probes: 10, Regions: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid meta rejected: %v", err)
	}
	bad := []Meta{
		{},
		{Start: t0, End: t0, IntervalHours: 3, Probes: 1, Regions: 1},
		{Start: t0, End: t0.Add(time.Hour), IntervalHours: 0, Probes: 1, Regions: 1},
		{Start: t0, End: t0.Add(time.Hour), IntervalHours: 3, Probes: 0, Regions: 1},
		{Start: t0, End: t0.Add(time.Hour), IntervalHours: 3, Probes: 1, Regions: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid meta accepted", i)
		}
	}
}

// writeStore creates a store of samples 1..n in dir and closes it.
func writeStore(t *testing.T, dir string, meta Meta, n int) *Store {
	t.Helper()
	st, sink, err := Create(dir, meta, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := sink.Write(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if sink.Count() != uint64(n) {
		t.Errorf("sink Count = %d", sink.Count())
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// checkStore reopens dir and expects samples 1..n under meta.
func checkStore(t *testing.T, dir string, meta Meta, n int) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Meta(); got.Seed != meta.Seed || !got.Start.Equal(meta.Start) {
		t.Errorf("meta = %+v", got)
	}
	var got []Sample
	if err := st.ForEach(func(s Sample) error { got = append(got, s); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("streamed %d samples, want %d", len(got), n)
	}
	for i, s := range got {
		want := sample(i + 1)
		if s.ProbeID != want.ProbeID || s.Region != want.Region || !s.Time.Equal(want.Time) ||
			s.RTTms != want.RTTms || s.Lost != want.Lost {
			t.Errorf("sample %d: %+v vs %+v", i, s, want)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStoreRoundTrip(t *testing.T) {
	meta := Meta{Seed: 42, Start: t0, End: t0.Add(24 * time.Hour), IntervalHours: 3, Probes: 2, Regions: 1}
	t.Run("binary", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "campaign")
		writeStore(t, dir, meta, 10)
		checkStore(t, dir, meta, 10)
	})
	// The interchange round trip, both ways: binary -> JSONL -> binary
	// reproduces samples.bin, and JSONL -> binary -> JSONL the lines.
	t.Run("jsonl", func(t *testing.T) {
		root := t.TempDir()
		bin, jl, bin2, jl2 := filepath.Join(root, "bin"), filepath.Join(root, "jl"), filepath.Join(root, "bin2"), filepath.Join(root, "jl2")
		st := writeStore(t, bin, meta, 10)
		if n, err := st.Export(jl); err != nil || n != 10 {
			t.Fatalf("Export = %d, %v", n, err)
		}
		st2, n, err := Import(jl, bin2)
		if err != nil || n != 10 {
			t.Fatalf("Import = %d, %v", n, err)
		}
		checkStore(t, bin2, meta, 10)
		if !bytes.Equal(mustRead(t, st.SamplesPath()), mustRead(t, st2.SamplesPath())) {
			t.Error("binary -> JSONL -> binary changed samples.bin")
		}
		if _, err := st2.Export(jl2); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{InterchangeFile, metaFile} {
			if !bytes.Equal(mustRead(t, filepath.Join(jl, name)), mustRead(t, filepath.Join(jl2, name))) {
				t.Errorf("JSONL -> binary -> JSONL changed %s", name)
			}
		}
	})
}

// TestImportRejectsBadLines pins that a malformed or oversized
// interchange line fails the import naming its line number.
func TestImportRejectsBadLines(t *testing.T) {
	meta := Meta{Seed: 1, Start: t0, End: t0.Add(time.Hour), IntervalHours: 1, Probes: 5, Regions: 3}
	good := `{"probe":1,"region":"r","t":"2019-09-01T00:00:00Z","rtt_ms":5}` + "\n"
	for name, tc := range map[string]struct{ body, want string }{
		"malformed": {good + "\n" + good + "{not json\n", "line 4"},
		"invalid":   {good + `{"probe":0,"region":"r","t":"2019-09-01T00:00:00Z","rtt_ms":5}` + "\n", "line 2"},
		"oversized": {good + `{"probe":3,"region":"` + strings.Repeat("y", MaxLineBytes) + `"}` + "\n", "line 2"},
	} {
		t.Run(name, func(t *testing.T) {
			src := t.TempDir()
			if err := writeMeta(src, meta); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(src, InterchangeFile), []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := Import(src, filepath.Join(t.TempDir(), "out"))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Import err = %v, want it to name %s", err, tc.want)
			}
		})
	}
}

func TestStoreErrors(t *testing.T) {
	if _, _, err := Create(t.TempDir(), Meta{}, FormatBinary); err == nil {
		t.Error("invalid meta accepted")
	}
	meta := Meta{Seed: 1, Start: t0, End: t0.Add(time.Hour), IntervalHours: 1, Probes: 5, Regions: 3}
	if _, _, err := Create(t.TempDir(), meta, Format(0)); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir opened")
	}
	// An interchange directory is not a store; Open says how to make one.
	jl := t.TempDir()
	if _, err := writeStore(t, t.TempDir(), meta, 3).Export(jl); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(jl); err == nil || !strings.Contains(err.Error(), "dataset") || !strings.Contains(err.Error(), "convert") {
		t.Errorf("Open(JSONL dir) err = %v, want a pointer to dataset convert", err)
	}
	// Neither samples file: the failure is Open's, and names what is missing.
	bare := t.TempDir()
	if err := writeMeta(bare, meta); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bare); err == nil || !strings.Contains(err.Error(), "holds no "+samplesFile) {
		t.Errorf("Open(meta only) err = %v, want it to name %s", err, samplesFile)
	}
}

func TestBinarySinkRejectsOutOfRangeTime(t *testing.T) {
	_, sink, err := Create(t.TempDir(), Meta{Seed: 1, Start: t0, End: t0.Add(time.Hour),
		IntervalHours: 1, Probes: 1, Regions: 1}, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	s := sample(1)
	s.Time = time.Date(1400, 1, 1, 0, 0, 0, 0, time.UTC) // outside UnixNano's range
	if err := sink.Write(s); err == nil {
		t.Error("pre-1678 timestamp accepted by binary sink")
	}
	if sink.Count() != 0 {
		t.Errorf("rejected sample counted: %d", sink.Count())
	}
}

func TestReaderLargeLine(t *testing.T) {
	// A line far beyond bufio.Scanner's 64 KiB default must stream fine.
	s := sample(1)
	s.Region = "Amazon/" + strings.Repeat("x", 512*1024)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(s); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatalf("512 KiB line: %v", err)
	}
	if got.Region != s.Region {
		t.Error("large region mangled")
	}
}

func TestReaderOversizedLineSurfacesErrTooLong(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 1; i <= 2; i++ {
		if err := w.Write(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"probe":3,"region":"Amazon/` + strings.Repeat("y", MaxLineBytes) + `"}` + "\n")

	r := NewReader(&buf)
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.Next()
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
}

func TestStoreResumeTruncates(t *testing.T) {
	// The subtest name is the store encoding, kept from when there were two.
	t.Run("binary", func(t *testing.T) {
		dir := t.TempDir()
		meta := Meta{Seed: 1, Start: t0, End: t0.Add(time.Hour), IntervalHours: 1, Probes: 5, Regions: 3}
		_, sink, err := Create(dir, meta, FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 4; i++ {
			if err := sink.Write(sample(i)); err != nil {
				t.Fatal(err)
			}
		}
		offset, err := sink.Commit() // durable watermark after 4 samples
		if err != nil {
			t.Fatal(err)
		}
		// Simulate a partial post-checkpoint round.
		for i := 5; i <= 7; i++ {
			if err := sink.Write(sample(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}

		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sink2, err := st.Resume(offset)
		if err != nil {
			t.Fatal(err)
		}
		for i := 5; i <= 6; i++ {
			if err := sink2.Write(sample(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink2.Close(); err != nil {
			t.Fatal(err)
		}

		var ids []int
		if err := st.ForEach(func(s Sample) error { ids = append(ids, s.ProbeID); return nil }); err != nil {
			t.Fatal(err)
		}
		want := []int{1, 2, 3, 4, 5, 6}
		if len(ids) != len(want) {
			t.Fatalf("resumed store has %d samples, want %d", len(ids), len(want))
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("sample %d = probe %d, want %d", i, ids[i], want[i])
			}
		}

		if _, err := st.Resume(1 << 40); err == nil {
			t.Error("offset past EOF accepted")
		}
		if _, err := st.Resume(-1); err == nil {
			t.Error("negative offset accepted")
		}
	})
}

func TestBinaryResumeRejectsMidBlockOffset(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 1, Start: t0, End: t0.Add(time.Hour), IntervalHours: 1, Probes: 5, Regions: 3}
	_, sink, err := Create(dir, meta, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := sink.Write(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	offset, err := sink.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Resume(offset - 3); err == nil {
		t.Error("mid-block resume offset accepted")
	}
	// The failed resume must not have truncated anything: the commit
	// offset still works and the data is intact.
	sink2, err := st.Resume(offset)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := st.ForEach(func(Sample) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("store holds %d samples, want 20", n)
	}
}
