package snap

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testHeader() Header {
	return Header{
		PassSet:       "suite-v1|start=1567296000000000000|width=604800000000000",
		Index:         "8f3a1c5d9e2b4a60",
		Meta:          "0011223344556677",
		Format:        FormatBinary,
		CoveredBytes:  1 << 20,
		CoveredBlocks: 88,
		Samples:       345600,
		HeadCRC:       0xdeadbeef,
		TailCRC:       0x01020304,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := testHeader()
	payload := []byte("opaque pass state \x00\x01\x02")
	data := Encode(h, payload)
	got, gotPayload, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header round trip: got %+v want %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload round trip: got %q want %q", gotPayload, payload)
	}

	// Empty payload and zero-valued header round-trip too.
	data = Encode(Header{}, nil)
	got, gotPayload, err = Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != (Header{}) || len(gotPayload) != 0 {
		t.Errorf("zero round trip: %+v payload %d bytes", got, len(gotPayload))
	}
}

// TestDecodeRejectsCorruption flips every byte of a valid snapshot in
// turn; each mutation must fail to decode (the CRC covers everything),
// and so must every truncation.
func TestDecodeRejectsCorruption(t *testing.T) {
	data := Encode(testHeader(), []byte("payload"))
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, _, err := Decode(mut); err == nil {
			t.Fatalf("byte %d flipped but Decode succeeded", i)
		}
	}
	for n := 0; n < len(data); n++ {
		if _, _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	if _, _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "samples.snap")

	if _, _, err := ReadFile(path); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing file: got %v, want ErrNoSnapshot", err)
	}

	h := testHeader()
	if err := WriteFile(path, h, []byte("state")); err != nil {
		t.Fatal(err)
	}
	got, payload, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || string(payload) != "state" {
		t.Errorf("read back %+v %q", got, payload)
	}

	// Rewrite replaces atomically; no temp files linger.
	h.Samples++
	if err := WriteFile(path, h, []byte("state2")); err != nil {
		t.Fatal(err)
	}
	got, payload, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || string(payload) != "state2" {
		t.Errorf("rewrite read back %+v %q", got, payload)
	}
	// WriteFile streams the parts Encode concatenates: same file bytes.
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, Encode(h, []byte("state2"))) {
		t.Errorf("file bytes differ from Encode's image (read err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dir has %d entries after rewrite, want 1", len(entries))
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
	if want := checksum(big[:WindowBytes]); head != want {
		t.Errorf("head CRC %08x want %08x", head, want)
	}
	if want := checksum(big[covered-WindowBytes : covered]); tail != want {
		t.Errorf("tail CRC %08x want %08x", tail, want)
	}

	// Short prefix: both windows are the whole prefix.
	head, tail, err = WindowCRCs(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := checksum(big[:10]); head != want || tail != want {
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
	b = AppendBool(b, true)
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
	if v, err := c.Bool(); err != nil || !v {
		t.Fatalf("bool %v %v", v, err)
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

	// Bad bool byte and oversized string length are rejected.
	if _, err := NewCursor([]byte{2}).Bool(); err == nil {
		t.Error("bool byte 2 accepted")
	}
	if _, err := NewCursor([]byte{0xff, 0x01}).String(); err == nil {
		t.Error("string length past end accepted")
	}
}
