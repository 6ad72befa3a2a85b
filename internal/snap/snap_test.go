package snap

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func testBinding() Binding {
	return Binding{
		PassSet: "suite-v5|start=1567296000000000000|width=604800000000000",
		Index:   "8f3a1c5d9e2b4a60",
		Meta:    "0011223344556677",
	}
}

var testPayloads = [][]byte{[]byte("first record"), {0}, []byte("third \x00\x01\x02")}

// TestEncodeDecodeRoundTrip validates an image back: the binding, every
// payload in order at the offsets the framing puts them (PayloadOffset
// bytes into its record), the whole image valid, and a zero binding
// with no records round-trips too.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := testBinding()
	img := Image(b, testPayloads...)
	p := Validate(img, b)
	if p.Binding != b || p.Stop != "" || p.Valid != int64(len(img)) || len(p.Records) != len(testPayloads) {
		t.Fatalf("Validate = %+v over %d bytes", p, len(img))
	}
	for i, rec := range p.Records {
		if !bytes.Equal(rec.Payload, testPayloads[i]) {
			t.Errorf("record %d = %q, want %q", i, rec.Payload, testPayloads[i])
		}
		if at := rec.Off + PayloadOffset; !bytes.Equal(img[at:at+int64(len(rec.Payload))], testPayloads[i]) {
			t.Errorf("record %d's payload does not start %d bytes into it", i, PayloadOffset)
		}
	}

	if p := Validate(Image(Binding{}), Binding{}); p.Stop != "" || len(p.Records) != 0 || p.Valid != int64(len(Image(Binding{}))) {
		t.Errorf("bare zero binding: %+v", p)
	}
	if p := Validate(img, Binding{PassSet: b.PassSet}); p.Stop != "binding mismatch" || p.Valid != 0 || p.Binding != b {
		t.Errorf("other binding: %+v", p)
	}
}

// TestDecodeRejectsCorruption flips every byte of a valid image in turn
// and cuts it at every length: what Validate returns is always a prefix
// of the records written — never all of them after a flip, never a
// payload that differs — and a cut ends the valid prefix at a record
// boundary at or before it.
func TestDecodeRejectsCorruption(t *testing.T) {
	b := testBinding()
	img := Image(b, testPayloads...)
	prefixOf := func(p Prefix) bool {
		for i, rec := range p.Records {
			if i >= len(testPayloads) || !bytes.Equal(rec.Payload, testPayloads[i]) {
				return false
			}
		}
		return true
	}
	for i := range img {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0x40
		p := Validate(mut, b)
		if !prefixOf(p) || len(p.Records) == len(testPayloads) || p.Stop == "" {
			t.Fatalf("byte %d flipped: %d records, stop %q", i, len(p.Records), p.Stop)
		}
	}
	for n := 0; n <= len(img); n++ {
		p := Validate(img[:n], b)
		if !prefixOf(p) || p.Valid > int64(n) || (p.Stop == "") != (p.Valid == int64(n) && n > 0) {
			t.Fatalf("cut at %d: %d records, valid %d, stop %q", n, len(p.Records), p.Valid, p.Stop)
		}
	}
	if p := Validate(append(append([]byte(nil), img...), 0), b); p.Stop == "" || p.Valid != int64(len(img)) {
		t.Fatalf("trailing byte: %+v", p)
	}
	// A zero-filled tail is torn, not a run of empty records.
	if p := Validate(append(append([]byte(nil), img...), make([]byte, 16)...), b); len(p.Records) != len(testPayloads) || p.Stop != "torn record" {
		t.Fatalf("zero tail: %+v", p)
	}
}

// TestWalkMatchesValidate pins the streaming reader to the image one. On
// every truncation and every single-bit flip of an image, under a
// binding it does not hold, with a zero-filled tail and with a trailing
// byte, Walk stops at Validate's Valid with Validate's Stop and hands
// its callback Validate's records, in order and at their offsets. The
// callback overwrites every byte its payload's capacity reaches, so a
// walker that read a payload, its CRC or the next record's length after
// the callback would diverge. A file shorter than the size Walk is told
// reads as a torn tail at the same Valid, and a callback's error stops
// the walk before its record, with the error's text as Stop.
func TestWalkMatchesValidate(t *testing.T) {
	b := testBinding()
	img := Image(b, testPayloads...)
	walk := func(data []byte, size int64, want Binding, fn func(Record) error) (Prefix, []Record) {
		t.Helper()
		var recs []Record
		p, err := Walk(bytes.NewReader(data), size, want, func(rec Record) error {
			recs = append(recs, Record{Off: rec.Off, Payload: bytes.Clone(rec.Payload)})
			full := rec.Payload[:cap(rec.Payload)]
			for i := range full {
				full[i] = 0xa5
			}
			return fn(rec)
		})
		if err != nil {
			t.Fatal(err)
		}
		return p, recs
	}
	accept := func(Record) error { return nil }
	check := func(label string, data []byte, want Binding) {
		t.Helper()
		v := Validate(data, want)
		p, recs := walk(data, int64(len(data)), want, accept)
		if p.Valid != v.Valid || p.Stop != v.Stop || p.Binding != v.Binding || len(recs) != len(v.Records) {
			t.Fatalf("%s: Walk stopped at %d (%q) after %d records, Validate at %d (%q) after %d",
				label, p.Valid, p.Stop, len(recs), v.Valid, v.Stop, len(v.Records))
		}
		for i, rec := range recs {
			if rec.Off != v.Records[i].Off || !bytes.Equal(rec.Payload, v.Records[i].Payload) {
				t.Fatalf("%s: record %d is %q at %d, Validate's %q at %d", label, i, rec.Payload, rec.Off, v.Records[i].Payload, v.Records[i].Off)
			}
		}
	}
	for n := 0; n <= len(img); n++ {
		check(fmt.Sprintf("cut at %d", n), img[:n], b)
	}
	for i := range img {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), img...)
			mut[i] ^= 1 << bit
			check(fmt.Sprintf("byte %d bit %d flipped", i, bit), mut, b)
		}
	}
	check("other binding", img, Binding{PassSet: b.PassSet})
	check("zero tail", append(append([]byte(nil), img...), make([]byte, 16)...), b)
	check("trailing byte", append(append([]byte(nil), img...), 0), b)

	whole := Validate(img, b)
	for _, rec := range whole.Records {
		if p, _ := walk(img[:rec.Off], int64(len(img)), b, accept); p.Valid != rec.Off || p.Stop == "" {
			t.Errorf("file shrunk to %d bytes: Walk stopped at %d (%q)", rec.Off, p.Valid, p.Stop)
		}
	}
	second := whole.Records[1]
	p, recs := walk(img, int64(len(img)), b, func(rec Record) error {
		if rec.Off == second.Off {
			return errors.New("refused")
		}
		return nil
	})
	if p.Valid != second.Off || p.Stop != "refused" || len(recs) != 2 {
		t.Errorf("callback refusing record 1: Walk stopped at %d (%q) after %d records, want %d (\"refused\") after 2", p.Valid, p.Stop, len(recs), second.Off)
	}
}

// TestWriteReadFile pins the whole-file pair: ReplaceFile leaves exactly
// the image and no temp file, a rewrite replaces it, and ReadFile hands
// back the one record or says what it found instead.
func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "samples.snap")
	b := testBinding()

	if _, err := ReadFile(path, b); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: got %v, want fs.ErrNotExist", err)
	}
	for _, payload := range [][]byte{[]byte("state"), []byte("state2")} {
		if err := ReplaceFile(path, Image(b, payload)); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadFile(path, b); err != nil || string(got) != string(payload) {
			t.Errorf("read back %q, %v; want %q", got, err, payload)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("dir has %d entries after rewrite, want 1 (%v)", len(entries), err)
	}

	other := b
	other.Meta = "ffffffffffffffff"
	if _, err := ReadFile(path, other); !errors.Is(err, ErrMismatch) {
		t.Errorf("other binding: got %v, want ErrMismatch", err)
	}
	for name, data := range map[string][]byte{
		"two records": Image(b, []byte("a"), []byte("b")),
		"no record":   Image(b),
		"torn":        Image(b, []byte("state"))[:40],
		"empty":       nil,
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadFile(path, b); err == nil {
			t.Errorf("%s: read %q", name, got)
		}
	}
	if err := ReplaceFile(filepath.Join(dir, "absent", "x"), nil); err == nil {
		t.Error("ReplaceFile into a missing directory succeeded")
	}
}

func TestWindowCRCs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*WindowBytes/16)
	if err := os.WriteFile(path, big, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	covered := int64(2*WindowBytes + 123)
	head, tail, err := WindowCRCs(f, covered)
	if err != nil {
		t.Fatal(err)
	}
	if want := Checksum(big[:WindowBytes]); head != want {
		t.Errorf("head CRC %08x want %08x", head, want)
	}
	if want := Checksum(big[covered-WindowBytes : covered]); tail != want {
		t.Errorf("tail CRC %08x want %08x", tail, want)
	}

	// Short prefix: both windows are the whole prefix.
	head, tail, err = WindowCRCs(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := Checksum(big[:10]); head != want || tail != want {
		t.Errorf("short prefix CRCs %08x/%08x want %08x", head, tail, want)
	}

	// Empty prefix is legal (empty store) and hashes nothing.
	if _, _, err := WindowCRCs(f, 0); err != nil {
		t.Fatalf("empty prefix: %v", err)
	}

	// A window past EOF is an error, not a silent short read.
	if _, _, err := WindowCRCs(f, int64(len(big))+1); err == nil {
		t.Error("covered past EOF succeeded")
	}
}

func TestCursorPrimitives(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -7)
	b = AppendFloat(b, 3.5)
	b = AppendString(b, "hé")
	b = AppendUint32(b, 0xcafef00d)

	c := NewCursor(b)
	if v, err := c.Uvarint(); err != nil || v != 300 {
		t.Fatalf("uvarint %d %v", v, err)
	}
	if v, err := c.Varint(); err != nil || v != -7 {
		t.Fatalf("varint %d %v", v, err)
	}
	if v, err := c.Float(); err != nil || v != 3.5 {
		t.Fatalf("float %v %v", v, err)
	}
	if v, err := c.String(); err != nil || v != "hé" {
		t.Fatalf("string %q %v", v, err)
	}
	if v, err := c.Uint32(); err != nil || v != 0xcafef00d {
		t.Fatalf("uint32 %x %v", v, err)
	}
	if c.Remaining() != 0 {
		t.Fatalf("%d bytes remain", c.Remaining())
	}
	if _, err := c.Byte(); err == nil {
		t.Fatal("read past end succeeded")
	}

	// An oversized string length is rejected.
	if _, err := NewCursor([]byte{0xff, 0x01}).String(); err == nil {
		t.Error("string length past end accepted")
	}
}
