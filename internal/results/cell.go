package results

import (
	"fmt"

	"repro/internal/colf"
)

// A cell is one (shard, round) batch of samples in transit between a
// cluster worker agent and the coordinator: the samples encoded as a
// standalone colf block stream (see colf.EncodeRows). Cells round-trip
// samples exactly — probe, region, UTC nanosecond timestamp, raw RTT
// bits, loss flag — which is what lets the coordinator's merged dataset
// stay byte-identical to a single-process run.

// EncodeCell validates and encodes samples as a cell payload.
func EncodeCell(samples []Sample) ([]byte, error) {
	rows := make([]colf.Row, len(samples))
	for i, s := range samples {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("results: cell sample %d: %w", i, err)
		}
		r, err := toRow(s)
		if err != nil {
			return nil, fmt.Errorf("results: cell sample %d: %w", i, err)
		}
		rows[i] = r
	}
	return colf.EncodeRows(rows)
}

// DecodeCell decodes a cell payload back into validated samples,
// verifying every block CRC along the way.
func DecodeCell(b []byte) ([]Sample, error) {
	rows, err := colf.DecodeRows(b)
	if err != nil {
		return nil, err
	}
	samples := make([]Sample, len(rows))
	for i, r := range rows {
		s := FromRow(r)
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("results: cell sample %d: %w", i, err)
		}
		samples[i] = s
	}
	return samples, nil
}
