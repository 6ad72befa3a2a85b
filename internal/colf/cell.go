package colf

import "bytes"

// This file is the block handoff codec: a standalone colf stream (file
// header followed by sealed blocks, no trailing index) used to ship row
// batches between processes. The cluster's worker agents encode each
// (shard, round) cell with EncodeRows and upload the bytes; the
// coordinator decodes with DecodeRows, which re-verifies every block
// CRC, so a corrupted or torn upload can never reach the merged
// dataset.

// EncodeRows encodes rows as a self-contained colf stream. Zero rows
// encode as a bare header, which DecodeRows accepts back as zero rows.
func EncodeRows(rows []Row) ([]byte, error) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := w.ensureHeader(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRows decodes a stream produced by EncodeRows, verifying each
// block's CRC. Any torn, truncated, or corrupted input is an error —
// never a silently short row slice.
func DecodeRows(b []byte) ([]Row, error) {
	if err := checkHeader(b); err != nil {
		return nil, err
	}
	r := bytes.NewReader(b)
	blocks, _, err := walk(r, HeaderSize, int64(len(b)))
	if err != nil {
		return nil, err
	}
	rd := &Reader{r: r, blocks: blocks}
	rows := make([]Row, 0, rd.Rows())
	if err := rd.ForEachRow(func(row Row) error { rows = append(rows, row); return nil }); err != nil {
		return nil, err
	}
	return rows, nil
}
