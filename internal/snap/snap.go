// Package snap is the one format of the derived files a campaign store
// keeps beside its samples: the analysis snapshot (samples.snap), the
// temporal aggregate index (samples.tix) and the campaign checkpoint
// (checkpoint.json). It also holds the codec primitives their payloads
// are built from (codec.go).
//
// # File layout
//
//	file    = magic[8] | record(binding) | record*
//	record  = u32 len(payload) | payload | u32 crc32c(payload)
//	binding = string passSet | string index | string meta
//
// The binding names what the records were computed from; nothing past a
// binding other than the one the reader expects is ever read. One
// framing function checks every record, and two readers call it:
// Validate, over a file image, returns the CRC-valid records after a
// matching binding and the length of that valid prefix, and says why it
// stopped; Walk finds the same prefix in a file streamed one record at a
// time, handing each record to a callback instead of keeping it. What a
// short prefix means is the owner's call — the
// append-only index truncates to it, the whole-file snapshot and
// checkpoint refuse it — so corruption costs a rebuild or an error,
// never a record that was not written. Whole files are written by
// ReplaceFile, the one durable replace in the repository.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// magic opens every file; the fifth byte is the format version. Version
// 1 was the snapshot's whole-file-CRC envelope, which therefore reads as
// a header mismatch, as does the index's own former "TIX" layout.
var magic = [8]byte{'S', 'N', 'A', 'P', 2, 0, 0, '\n'}

// overhead is a record's framing: the length prefix and the CRC trailer.
const overhead = 8

// PayloadOffset is where a record's payload starts: past its length.
const PayloadOffset = 4

// crcTable selects the Castagnoli polynomial, which has a dedicated
// instruction on amd64/arm64 where the IEEE polynomial does not, so
// checking a multi-megabyte index stays a small fraction of reading it.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C of b, the one every record carries.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// ErrMismatch reports a file whose magic or binding is not the one the
// reader asked for: a file of another format version, of another kind,
// or computed from other inputs.
var ErrMismatch = errors.New("snap: header mismatch")

// Binding is the identity a file binds to: the pass set (the producer's
// layout and parameters, versioned), the probe index fingerprint and the
// campaign meta fingerprint. A file is read only under the binding it
// was written with.
type Binding struct {
	PassSet string
	Index   string
	Meta    string
}

func (b Binding) append(p []byte) []byte {
	p = AppendString(p, b.PassSet)
	p = AppendString(p, b.Index)
	return AppendString(p, b.Meta)
}

func decodeBinding(p []byte) (Binding, error) {
	var b Binding
	var err error
	c := NewCursor(p)
	if b.PassSet, err = c.String(); err != nil {
		return b, err
	}
	if b.Index, err = c.String(); err != nil {
		return b, err
	}
	if b.Meta, err = c.String(); err != nil {
		return b, err
	}
	if c.Remaining() != 0 {
		return b, fmt.Errorf("snap: %d trailing binding bytes", c.Remaining())
	}
	return b, nil
}

// AppendRecord appends payload framed as one record.
func AppendRecord(b, payload []byte) []byte {
	b = AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return AppendUint32(b, Checksum(payload))
}

// Image returns a whole file: magic, b's binding record, then one record
// per payload.
func Image(b Binding, payloads ...[]byte) []byte {
	img := AppendRecord(append([]byte(nil), magic[:]...), b.append(nil))
	for _, p := range payloads {
		img = AppendRecord(img, p)
	}
	return img
}

// Record is one CRC-valid record of a file image.
type Record struct {
	// Off is the file offset of the record's first byte.
	Off int64
	// Payload aliases the image the record was found in.
	Payload []byte
}

// Len returns the record's framed size in the file.
func (r Record) Len() int { return len(r.Payload) + overhead }

// Prefix is what Validate found in a file image.
type Prefix struct {
	// Binding is the file's binding, zero when it did not decode.
	Binding Binding
	// Records are the CRC-valid records after a binding equal to the one
	// asked for, in file order.
	Records []Record
	// Valid is the length of the image's valid prefix: the end of the
	// last record in Records, or of the binding record when there are
	// none. Zero means the file is not bound to what was asked for.
	Valid int64
	// Stop says why validation ended before the image did; empty when
	// all of it is valid.
	Stop string
}

// record frames the record at off in data, or says why there is none.
// A zero length is refused as torn: a zero-filled tail would otherwise
// read as a run of valid empty records (the CRC of nothing is zero).
func record(data []byte, off int64) (Record, string) {
	rest := data[off:]
	if len(rest) < 4 {
		return Record{}, "torn record length"
	}
	n := int64(binary.LittleEndian.Uint32(rest))
	if n == 0 || int64(len(rest)) < n+overhead {
		return Record{}, "torn record"
	}
	payload := rest[PayloadOffset : PayloadOffset+n]
	if Checksum(payload) != binary.LittleEndian.Uint32(rest[PayloadOffset+n:]) {
		return Record{}, "record CRC mismatch"
	}
	return Record{Off: off, Payload: payload}, ""
}

// Validate checks a file image against want: the magic, then a binding
// record equal to want, then records up to the first that is torn or
// fails its CRC. It allocates nothing but the Records slice — a record
// takes at least nine bytes of data — and every payload aliases data.
func Validate(data []byte, want Binding) Prefix {
	var recs []Record
	p, _ := walk(func(off, n int64) ([]byte, error) {
		return data[off:min(off+n, int64(len(data)))], nil
	}, int64(len(data)), want, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	p.Records = recs
	return p
}

// Walk is Validate over a file read through r (size bytes) rather than
// an image in memory: it reads the file one record at a time into one
// buffer, which grows only with the largest record (to 1.25 times it at
// most), and hands every CRC-valid record after a binding equal to want
// to fn, in file order. The payload aliases that buffer and is valid
// only until fn returns; Walk reads nothing of a record after handing
// it over. An error from fn stops the walk before that record: Valid is
// the record's offset and Stop the error's text. The Prefix holds no
// Records; the error returned is one r returned. A file shorter than
// size reads as a torn tail.
func Walk(r io.ReaderAt, size int64, want Binding, fn func(Record) error) (Prefix, error) {
	var buf []byte
	return walk(func(off, n int64) ([]byte, error) {
		n = max(min(n, size-off), 0)
		if int64(cap(buf)) < n {
			// A quarter's headroom lets records of about one size share it.
			buf = make([]byte, n+n/4)
		}
		got, err := r.ReadAt(buf[:n], off)
		if err != nil && err != io.EOF {
			return nil, err
		}
		return buf[:got], nil
	}, size, want, fn)
}

// walk is the one prefix reader behind Validate and Walk: read returns
// what there is of the file's [off, off+n), which is size bytes long.
// Each read takes a record and the length prefix of the one after it,
// so only the binding's prefix takes a read of its own.
func walk(read func(off, n int64) ([]byte, error), size int64, want Binding, fn func(Record) error) (Prefix, error) {
	var p Prefix
	n := int64(-1) // the length prefix at the next offset, -1 while unread
	next := func(off int64) (Record, string, error) {
		if n < 0 {
			data, err := read(off, PayloadOffset)
			if err != nil {
				return Record{}, "", err
			}
			if len(data) == PayloadOffset {
				n = int64(binary.LittleEndian.Uint32(data))
			}
		}
		data, err := read(off, max(n, 0)+overhead+PayloadOffset)
		if err != nil {
			return Record{}, "", err
		}
		rec, stop := record(data, 0)
		rec.Off, n = off, -1
		if rest := data[min(rec.Len(), len(data)):]; stop == "" && len(rest) == PayloadOffset {
			n = int64(binary.LittleEndian.Uint32(rest))
		}
		return rec, stop, nil
	}

	head, err := read(0, int64(len(magic)))
	switch {
	case err != nil:
		return p, err
	case len(head) < len(magic):
		p.Stop = "short file"
		return p, nil
	case string(head) != string(magic[:]):
		p.Stop = "bad magic"
		return p, nil
	}
	rec, stop, err := next(int64(len(magic)))
	switch {
	case err != nil:
		return p, err
	case stop != "":
		p.Stop = "binding: " + stop
		return p, nil
	}
	b, err := decodeBinding(rec.Payload)
	if err != nil {
		p.Stop = "binding: " + err.Error()
		return p, nil
	}
	p.Binding = b
	if b != want {
		p.Stop = "binding mismatch"
		return p, nil
	}
	p.Valid = rec.Off + int64(rec.Len())
	for p.Valid < size {
		if rec, p.Stop, err = next(p.Valid); err != nil || p.Stop != "" {
			return p, err
		}
		if err := fn(rec); err != nil {
			p.Stop = err.Error()
			break
		}
		p.Valid += int64(rec.Len())
	}
	return p, nil
}

// ReadFile reads a whole file that ReplaceFile wrote as Image(want,
// payload) and returns the payload. A missing file is the os error; a
// file with another magic or binding is ErrMismatch; anything but
// exactly one CRC-valid record after the binding is an error saying
// what was found instead.
func ReadFile(path string, want Binding) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := Validate(data, want)
	switch {
	case p.Valid == 0:
		return nil, fmt.Errorf("%w: %s", ErrMismatch, p.Stop)
	case p.Stop != "":
		return nil, fmt.Errorf("snap: %s at offset %d", p.Stop, p.Valid)
	case len(p.Records) != 1:
		return nil, fmt.Errorf("snap: %d records, want 1", len(p.Records))
	}
	return p.Records[0].Payload, nil
}

// ReplaceFile durably replaces path with data: a temp file in the same
// directory is written, fsynced and renamed over path, and then the
// directory is fsynced so that the rename survives a crash too. A reader
// sees the old file or the new one, never a torn one.
func ReplaceFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Fingerprint derives a compact identity for a store prefix from the
// evidence a snapshot binds its state to: the covered byte boundary, the
// sample count, and the head/tail content-window CRCs. Two prefixes
// with equal fingerprints carry the same analysis state for practical
// purposes, which is what cache keys and HTTP ETags need.
func Fingerprint(covered int64, samples uint64, head, tail uint32) string {
	return fmt.Sprintf("%x-%x-%08x%08x", covered, samples, head, tail)
}

// WindowBytes is the size of the head and tail content windows a
// snapshot checks its covered prefix by. Two 64 KiB reads bound
// validation cost regardless of store size while still catching
// same-length rewrites at either end.
const WindowBytes = 64 << 10

// WindowCRCs checksums the first and last WindowBytes of the covered
// prefix [0, covered) of r.
func WindowCRCs(r io.ReaderAt, covered int64) (head, tail uint32, err error) {
	window := func(off, n int64) (uint32, error) {
		buf := make([]byte, n)
		if _, err := r.ReadAt(buf, off); err != nil {
			return 0, err
		}
		return Checksum(buf), nil
	}
	n := min(covered, WindowBytes)
	if head, err = window(0, n); err != nil {
		return 0, 0, err
	}
	if tail, err = window(covered-n, n); err != nil {
		return 0, 0, err
	}
	return head, tail, nil
}
